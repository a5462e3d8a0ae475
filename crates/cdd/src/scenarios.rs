//! Scenario vocabulary for the `raidx-model` protocol checker: scripted
//! client programs ([`ProtoOp`], [`Scenario`]), seeded protocol bugs
//! ([`Defect`]) and the recorded operation history the linearizability
//! checker consumes ([`HistOp`], [`OpRecord`]). The compiled explorable
//! model over this vocabulary lives in [`crate::proto`].

/// One scripted group operation of a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoOp {
    /// Acquire `[start, start+len)`, write `val` to every block, release.
    WriteGroup {
        /// First logical block of the group.
        start: u64,
        /// Blocks in the group.
        len: u64,
        /// Value written to each block.
        val: u64,
    },
    /// Acquire `[start, start+len)`, read every block, release.
    ReadGroup {
        /// First logical block of the group.
        start: u64,
        /// Blocks in the group.
        len: u64,
    },
    /// Lock-free read of every block through the client's local cache:
    /// a hit serves the cached value, a miss reads the store and fills.
    /// Coherence comes from writers' invalidation micro-steps riding
    /// their grant — exactly the [`crate::cache`] protocol.
    CachedReadGroup {
        /// First logical block of the group.
        start: u64,
        /// Blocks in the group.
        len: u64,
    },
    /// An operator's epoch transition over the scenario's migrating block
    /// ([`Scenario::mig`]): bump the epoch under the reserved meta lock
    /// (placement flips, the block becomes pending), then copy the block
    /// to its new home under the block lock, re-validating that it is
    /// still pending — the micro-step shape of [`crate::rebalance`].
    Reconfig,
}

/// A protocol bug planted into the compiled scenario, used by
/// seeded-defect tests to prove the checker catches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// Faithful protocol — exploration must come back clean.
    None,
    /// On conflict, grant anyway (bypasses the overlap check). Caught by
    /// the overlapping-grants state invariant.
    DoubleGrant,
    /// Releases do not wake blocked waiters. Caught as a deadlock (lost
    /// wakeup) on schedules where the waiter blocks before the release.
    SkipWakeup,
    /// The group is released after the first block write; remaining
    /// blocks are written unlocked. Caught by the write-coverage step
    /// assertion, or as a torn read by the linearizability checker.
    EarlyRelease,
    /// Multi-block groups are acquired one block at a time — ascending on
    /// even clients, descending on odd ones — instead of atomically.
    /// Caught as an ABBA deadlock.
    SplitAcquire,
    /// Readers skip the lock protocol entirely. Caught as a
    /// non-linearizable (torn) read by the history checker.
    UnlockedRead,
    /// The epoch transition's migration copy runs unlocked and without
    /// re-validating the pending flag, so it can clobber a new-epoch
    /// write with the stale old-home bytes. Caught as a non-linearizable
    /// (stale) read by the history checker.
    UnsyncedReconfig,
    /// Writers skip the cache invalidation their grant is supposed to
    /// carry (a plain store write instead of the coherent
    /// write-and-purge), so a cached read issued strictly after the
    /// write completes can still return the superseded value. Caught as
    /// a non-linearizable (stale) read by the history checker.
    SkipInvalidate,
}

/// A named multi-client scenario for the model checker.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (used in pass reports).
    pub name: &'static str,
    /// Size of the shared block store.
    pub blocks: u64,
    /// Per-client operation scripts (client index = thread id).
    pub scripts: Vec<Vec<ProtoOp>>,
    /// The planted bug, if any.
    pub defect: Defect,
    /// Assert at every store write that the writer holds a covering
    /// grant. On for invariant scenarios; off for linearizability
    /// scenarios (there the history checker is the oracle).
    pub assert_coverage: bool,
    /// The logical block an epoch transition migrates, if the scenario
    /// scripts a [`ProtoOp::Reconfig`]. After the bump, this block's
    /// writes land at (and reads of it come from) a shadow new-home cell,
    /// with pending reads served from the old home — the model analogue of
    /// [`crate::placer::Placer`] routing.
    pub mig: Option<u64>,
}

/// Two clients writing the same two-block group — the minimal contended
/// scenario exercising conflict, blocking and wakeup.
pub fn scenario_contended(defect: Defect) -> Scenario {
    Scenario {
        name: "contended-writers",
        blocks: 2,
        scripts: vec![
            vec![ProtoOp::WriteGroup { start: 0, len: 2, val: 10 }],
            vec![ProtoOp::WriteGroup { start: 0, len: 2, val: 20 }],
        ],
        defect,
        assert_coverage: true,
        mig: None,
    }
}

/// A writer and a concurrent reader over the same group — the scenario
/// whose histories the linearizability checker audits for torn reads.
pub fn scenario_reader(defect: Defect) -> Scenario {
    Scenario {
        name: "writer-reader",
        blocks: 2,
        scripts: vec![
            vec![ProtoOp::WriteGroup { start: 0, len: 2, val: 7 }],
            vec![ProtoOp::ReadGroup { start: 0, len: 2 }],
        ],
        defect,
        assert_coverage: false,
        mig: None,
    }
}

/// Three clients with overlapping groups: two writers whose ranges share
/// a block, plus a reader spanning both.
pub fn scenario_three(defect: Defect) -> Scenario {
    Scenario {
        name: "three-clients",
        blocks: 3,
        scripts: vec![
            vec![ProtoOp::WriteGroup { start: 0, len: 2, val: 5 }],
            vec![ProtoOp::WriteGroup { start: 1, len: 2, val: 6 }],
            vec![ProtoOp::ReadGroup { start: 0, len: 2 }],
        ],
        defect,
        assert_coverage: true,
        mig: None,
    }
}

/// An operator's epoch transition racing a writer and a reader of the
/// migrating block — the scenario proving the rebalance copy must
/// re-validate the pending flag under the block lock before overwriting
/// the new home.
pub fn scenario_epoch(defect: Defect) -> Scenario {
    Scenario {
        name: "epoch-migration",
        blocks: 1,
        scripts: vec![
            vec![ProtoOp::Reconfig],
            vec![ProtoOp::WriteGroup { start: 0, len: 1, val: 9 }],
            vec![ProtoOp::ReadGroup { start: 0, len: 1 }],
        ],
        defect,
        assert_coverage: false,
        mig: Some(0),
    }
}

/// A writer racing two caching readers over one block — the scenario
/// proving write-grant invalidation is what keeps client caches
/// coherent. Each reader reads twice so at least one read can land
/// strictly after the write completes: with the faithful protocol that
/// read always sees the new value (the grant invalidated the cached
/// copy); with [`Defect::SkipInvalidate`] it can return the stale cached
/// value, which the linearizability checker rejects.
pub fn scenario_cache(defect: Defect) -> Scenario {
    Scenario {
        name: "cache-coherence",
        blocks: 1,
        scripts: vec![
            vec![
                ProtoOp::CachedReadGroup { start: 0, len: 1 },
                ProtoOp::CachedReadGroup { start: 0, len: 1 },
            ],
            vec![ProtoOp::WriteGroup { start: 0, len: 1, val: 42 }],
            vec![
                ProtoOp::CachedReadGroup { start: 0, len: 1 },
                ProtoOp::CachedReadGroup { start: 0, len: 1 },
            ],
        ],
        defect,
        assert_coverage: true,
        mig: None,
    }
}

/// Every scenario, in the order the model-check pass reports them.
pub const SCENARIOS: [fn(Defect) -> Scenario; 5] =
    [scenario_contended, scenario_reader, scenario_three, scenario_epoch, scenario_cache];

/// One entry of the SIOS operation history recorded during exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistOp {
    /// A completed group write.
    Write {
        /// First block written.
        start: u64,
        /// Blocks written.
        len: u64,
        /// Value written to each block.
        val: u64,
    },
    /// A completed group read and the values it returned.
    Read {
        /// First block read.
        start: u64,
        /// Value returned per block, in ascending block order.
        vals: Vec<u64>,
    },
}

/// A completed operation with its real-time invocation/response window
/// (global step counters), as consumed by the linearizability checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The client that issued the operation.
    pub client: usize,
    /// Global step count at which the operation started.
    pub inv: u64,
    /// Global step count at which the operation completed.
    pub resp: u64,
    /// What the operation did / returned.
    pub op: HistOp,
}
