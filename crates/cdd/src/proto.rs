//! `raidx-model` protocol scenarios — small multi-client CDD programs the
//! schedule explorer can exhaustively interleave.
//!
//! A [`Scenario`] gives each client a script of group operations
//! ([`ProtoOp`]); compilation breaks every operation into *micro-steps*
//! (acquire the lock group, write/read one block, release) so the
//! explorer can preempt between any two. [`CddModel`] implements
//! [`sim_core::explore::Model`] over the shared [`ProtoState`], which
//! holds the implementation's own types and restates none of their
//! rules: the [`LockGroupTable`], a [`Placer`] with one slot per logical
//! block, a [`CacheSet`] with one cache per client, the physical blocks
//! the placer routes to, and a recorded operation history for post-hoc
//! linearizability checking. Each micro-step is the call sequence the
//! request path makes (DESIGN §7 maps one to the other).
//!
//! **Invariants checked while exploring** (the paper's CDD consistency
//! contract): no two live grants of different owners overlap (grants are
//! exclusive write permissions), every store write is covered by a grant
//! held by the writer, and every schedule terminates (a client blocked
//! forever is a lost wakeup / deadlock, which the explorer reports).
//!
//! **Seeded defects.** [`Defect`] plants one of seven protocol bugs so
//! the checker's tests can prove each detection path actually fires; see
//! the variant docs for which signal catches which bug.

use std::collections::BTreeSet;

use cluster::Block;
use raidx_core::BlockAddr;

use crate::cache::{CacheConfig, CacheSet};
use crate::compile::{compile_op, CompiledOp, MicroStep};
use crate::locks::{LockGroupTable, LockHandle};
use crate::placer::{Migration, Placer};
use crate::scenarios::{Defect, HistOp, OpRecord, ProtoOp, Scenario};
use sim_core::explore::{Footprint, Model, ThreadId};

/// Abstract footprint cell of the shared lock-group table.
pub const TABLE_CELL: u64 = 0;

/// Abstract footprint cell of logical block `lb` (offset past the table).
pub fn block_cell(lb: u64) -> u64 {
    1 + lb
}

/// Bytes of a model block: one little-endian `u64` value.
const BLOCK_BYTES: usize = 8;

/// The block holding `val`.
fn block_of(val: u64) -> Block {
    Block::from(val.to_le_bytes().as_slice())
}

/// The value a block holds.
fn val_of(bytes: &[u8]) -> u64 {
    bytes.try_into().map_or(0, u64::from_le_bytes)
}

/// Slot-space address of logical block `lb`: every slot holds one block,
/// at index 0.
fn addr(lb: u64) -> BlockAddr {
    BlockAddr::new(lb as usize, 0)
}

/// Per-client execution state.
#[derive(Debug, Clone, Default)]
pub struct ClientState {
    op_idx: usize,
    step_idx: usize,
    handles: Vec<LockHandle>,
    waiting: bool,
    op_inv: Option<u64>,
    read_vals: Vec<u64>,
    /// The migration this client's epoch bump started, as
    /// [`crate::IoSystem::rebalance`] snapshots it.
    migration: Option<Migration>,
}

/// The shared state the explorer clones at every branch point.
#[derive(Debug, Clone)]
pub struct ProtoState {
    /// The real CDD lock-group table.
    pub table: LockGroupTable,
    /// The real placer: slot `lb` serves logical block `lb`.
    pub placer: Placer,
    /// The real client caches, one per client.
    pub cache: CacheSet,
    /// The Single I/O Space: one block per physical disk of the placer's
    /// roster, spares included.
    pub disks: Vec<Block>,
    /// Completed operations, for the linearizability checker.
    pub history: Vec<OpRecord>,
    /// Global step counter (real-time order for inv/resp stamps).
    pub steps: u64,
    /// Per-client execution state.
    pub clients: Vec<ClientState>,
}

impl ProtoState {
    /// Block `lb` where a read finds it: at the placer's read home.
    fn read_block(&self, lb: u64) -> Block {
        self.disks[self.placer.read_home(addr(lb)).disk].clone()
    }
}

/// A compiled [`Scenario`] implementing [`Model`] for the explorer.
#[derive(Debug, Clone)]
pub struct CddModel {
    scenario: Scenario,
    programs: Vec<Vec<CompiledOp>>,
}

impl CddModel {
    /// Compile a scenario's scripts into explorable micro-step programs.
    pub fn new(scenario: Scenario) -> Self {
        let programs = scenario
            .scripts
            .iter()
            .enumerate()
            .map(|(client, script)| {
                script.iter().map(|op| compile_op(op, &scenario, client)).collect()
            })
            .collect();
        CddModel { scenario, programs }
    }

    /// The compiled scenario's name.
    pub fn name(&self) -> &'static str {
        self.scenario.name
    }

    fn current(&self, s: &ProtoState, t: ThreadId) -> MicroStep {
        let c = &s.clients[t];
        self.programs[t][c.op_idx].steps[c.step_idx]
    }
}

impl Model for CddModel {
    type State = ProtoState;

    fn init(&self) -> ProtoState {
        let blocks = self.scenario.blocks as usize;
        ProtoState {
            table: LockGroupTable::new(),
            placer: Placer::identity(blocks),
            cache: CacheSet::new(CacheConfig::default(), self.programs.len()),
            disks: vec![block_of(0); blocks],
            history: Vec::new(),
            steps: 0,
            clients: vec![ClientState::default(); self.programs.len()],
        }
    }

    fn threads(&self) -> usize {
        self.programs.len()
    }

    fn done(&self, s: &ProtoState, t: ThreadId) -> bool {
        s.clients[t].op_idx >= self.programs[t].len()
    }

    fn enabled(&self, s: &ProtoState, t: ThreadId) -> bool {
        !self.done(s, t) && !s.clients[t].waiting
    }

    fn footprint(&self, s: &ProtoState, t: ThreadId) -> Footprint {
        match self.current(s, t) {
            MicroStep::Acquire { .. } | MicroStep::Release => Footprint::cells(vec![TABLE_CELL]),
            // Reads, cached reads and writes race through the block's
            // home and coherence state; the epoch bump and the migration
            // copy change its routing. All touch the block cell, so the
            // explorer interleaves them against each other.
            MicroStep::Write { lb, .. }
            | MicroStep::Read { lb }
            | MicroStep::CacheRead { lb }
            | MicroStep::Bump { lb }
            | MicroStep::Migrate { lb, .. } => Footprint::cells(vec![block_cell(lb)]),
        }
    }

    fn step(&self, s: &mut ProtoState, t: ThreadId) -> Result<(), String> {
        s.steps += 1;
        let now = s.steps;
        let (op_idx, step_idx) = (s.clients[t].op_idx, s.clients[t].step_idx);
        let comp = &self.programs[t][op_idx];
        if step_idx == 0 && s.clients[t].op_inv.is_none() {
            s.clients[t].op_inv = Some(now);
        }
        let mut advance = true;
        match comp.steps[step_idx] {
            MicroStep::Acquire { start, len } => match s.table.acquire(t, start, len) {
                Ok(h) => s.clients[t].handles.push(h),
                Err(_) if self.scenario.defect == Defect::DoubleGrant => {
                    let h = s.table.acquire_unchecked(t, start, len);
                    s.clients[t].handles.push(h);
                }
                Err(_) => {
                    // Block until some release wakes us; the acquire
                    // micro-step retries then.
                    s.clients[t].waiting = true;
                    advance = false;
                }
            },
            MicroStep::Write { lb, val } => {
                let covered = s.clients[t].handles.iter().any(|&h| {
                    s.table
                        .record_of(h)
                        .is_some_and(|r| r.owner == t && r.start <= lb && lb < r.start + r.len)
                });
                if !covered {
                    return Err(format!("client {t} writes block {lb} without a covering grant"));
                }
                // `write_admitted`: the new home takes the bytes (and the
                // block leaves the pending set), then every client's
                // cached copy goes while the grant is held.
                let home = s.placer.write_home(addr(lb));
                s.disks[home.disk] = block_of(val);
                if self.scenario.defect != Defect::SkipInvalidate {
                    s.cache.invalidate(lb, 1);
                }
            }
            MicroStep::Read { lb } => {
                let v = val_of(&s.read_block(lb));
                s.clients[t].read_vals.push(v);
            }
            MicroStep::CacheRead { lb } => {
                // `read_admitted`: a hit is served locally; a miss reads
                // the read home between the two phases of a fill.
                let v = match s.cache.lookup(t, lb, 1, BLOCK_BYTES) {
                    Some(bytes) => val_of(&bytes),
                    None => {
                        let ticket = s.cache.begin_fill();
                        let block = s.read_block(lb);
                        let v = val_of(&block);
                        s.cache.commit_fill(t, ticket, lb, vec![block]);
                        v
                    }
                };
                s.clients[t].read_vals.push(v);
            }
            MicroStep::Bump { lb } => {
                // `add_disk` then `remove_disk`: a blank spare joins, then
                // takes over the block's slot with the block pending.
                let spare = s.placer.add_spare();
                s.disks.resize(spare + 1, block_of(0));
                s.placer.begin_promote(lb as usize, spare, false, BTreeSet::from([0]));
                s.clients[t].migration = s.placer.migration().cloned();
            }
            MicroStep::Migrate { revalidate, .. } => {
                // `rebalance`: move the snapshot's block old → new home,
                // then retire the drained migration. The faithful copy
                // re-checks the live pending set first.
                let m = s.clients[t]
                    .migration
                    .take()
                    .ok_or_else(|| format!("client {t} migrates without an epoch bump"))?;
                let pending = s.placer.migration().is_some_and(|cur| cur.pending.contains(&0));
                if !revalidate || pending {
                    s.disks[m.new_phys] = s.disks[m.old_phys].clone();
                }
                s.placer.clear_pending(m.slot, 0);
                s.placer.finish_if_drained();
            }
            MicroStep::Release => {
                let handles = std::mem::take(&mut s.clients[t].handles);
                for h in handles {
                    s.table.try_release(h).map_err(|e| format!("release failed: {e:?}"))?;
                }
                if self.scenario.defect != Defect::SkipWakeup {
                    for (i, c) in s.clients.iter_mut().enumerate() {
                        if i != t {
                            c.waiting = false;
                        }
                    }
                }
            }
        }
        if advance {
            let steps_len = comp.steps.len();
            let c = &mut s.clients[t];
            c.step_idx += 1;
            if c.step_idx == steps_len {
                let inv = c.op_inv.take().unwrap_or(now);
                let op = match &comp.op {
                    ProtoOp::WriteGroup { start, len, val } => {
                        Some(HistOp::Write { start: *start, len: *len, val: *val })
                    }
                    ProtoOp::ReadGroup { start, .. } | ProtoOp::CachedReadGroup { start, .. } => {
                        Some(HistOp::Read { start: *start, vals: std::mem::take(&mut c.read_vals) })
                    }
                    // A migration preserves contents: no logical effect.
                    ProtoOp::Reconfig { .. } => None,
                };
                c.op_idx += 1;
                c.step_idx = 0;
                if let Some(op) = op {
                    s.history.push(OpRecord { client: t, inv, resp: now, op });
                }
            }
        }
        Ok(())
    }

    fn invariant(&self, s: &ProtoState) -> Result<(), String> {
        let held: Vec<_> = s.table.held().collect();
        for (i, a) in held.iter().enumerate() {
            for b in &held[i + 1..] {
                if a.owner != b.owner && a.start < b.start + b.len && b.start < a.start + a.len {
                    return Err(format!(
                        "overlapping grants: client {} [{},+{}) vs client {} [{},+{})",
                        a.owner, a.start, a.len, b.owner, b.start, b.len
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{scenario_cache, scenario_contended, scenario_reader, scenario_three};
    use sim_core::explore::{Explorer, Failure, FailureKind};

    /// The values client 0's two cached reads returned, in program order.
    fn client0_reads(s: &ProtoState) -> Vec<u64> {
        s.history
            .iter()
            .filter(|r| r.client == 0)
            .filter_map(|r| match &r.op {
                HistOp::Read { vals, .. } => Some(vals[0]),
                HistOp::Write { .. } => None,
            })
            .collect()
    }

    /// Faithful protocol: the write grant's invalidation purges the
    /// reader's cached copy, so a read issued after the write completes
    /// misses and returns the new value.
    #[test]
    fn grant_invalidation_keeps_cached_reads_fresh() {
        let m = CddModel::new(scenario_cache(Defect::None));
        // c0 fills its cache (0), the writer runs to completion
        // (acquire, coherent write, release), then c0 reads again.
        let (s, fail) = sim_core::explore::replay(&m, &[0, 1, 1, 1, 0], 64);
        assert!(fail.is_none(), "{fail:?}");
        assert_eq!(client0_reads(&s), vec![0, 42], "post-write read must miss and see 42");
        assert_eq!(s.cache.stats().invalidations, 1, "the write dropped c0's cached copy");
    }

    /// Planted defect: skipping the invalidation leaves the stale cached
    /// value visible *after* the write's response — the non-linearizable
    /// history the verify pass's checker must reject.
    #[test]
    fn skip_invalidate_serves_a_stale_read_after_the_write() {
        let m = CddModel::new(scenario_cache(Defect::SkipInvalidate));
        let (s, fail) = sim_core::explore::replay(&m, &[0, 1, 1, 1, 0], 64);
        assert!(fail.is_none(), "{fail:?}");
        assert_eq!(client0_reads(&s), vec![0, 0], "stale cached value must survive the write");
        assert_eq!(s.cache.stats().invalidations, 0, "the write invalidated nothing");
        let write_resp = s
            .history
            .iter()
            .find(|r| matches!(r.op, HistOp::Write { .. }))
            .expect("write completed")
            .resp;
        let second_read = s.history.iter().filter(|r| r.client == 0).nth(1).expect("second read");
        assert!(second_read.inv > write_resp, "the stale read starts after the write responds");
    }

    #[test]
    fn clean_scenarios_explore_clean() {
        for sc in crate::scenarios::SCENARIOS.map(|f| f(Defect::None)) {
            let name = sc.name;
            let r = Explorer::default().explore(&CddModel::new(sc));
            assert!(r.clean(), "{name}: {:?}", r.failure);
            assert!(r.schedules > 0, "{name}: no schedule reached a leaf");
            assert!(!r.truncated, "{name}: truncated");
        }
    }

    /// The failure exploring `sc` finds.
    fn failure(sc: Scenario) -> Failure {
        Explorer::default().explore(&CddModel::new(sc)).failure.expect("planted defect not caught")
    }

    #[test]
    fn double_grant_violates_invariant() {
        let f = failure(scenario_contended(Defect::DoubleGrant));
        assert!(matches!(f.kind, FailureKind::Invariant(_)), "{f}");
    }

    #[test]
    fn skipped_wakeup_deadlocks() {
        let f = failure(scenario_contended(Defect::SkipWakeup));
        assert!(matches!(f.kind, FailureKind::Deadlock(_)), "{f}");
    }

    #[test]
    fn split_acquire_deadlocks() {
        let f = failure(scenario_contended(Defect::SplitAcquire));
        assert!(matches!(f.kind, FailureKind::Deadlock(_)), "{f}");
    }

    #[test]
    fn early_release_fails_coverage() {
        let f = failure(scenario_contended(Defect::EarlyRelease));
        assert!(matches!(f.kind, FailureKind::Step(_)), "{f}");
    }

    /// Every interleaving from `s`, unpruned: (complete schedules, whether
    /// any failed a step or the invariant, or deadlocked).
    fn naive(m: &CddModel, s: &ProtoState) -> (u64, bool) {
        let live: Vec<usize> = (0..m.threads()).filter(|&t| !m.done(s, t)).collect();
        if live.is_empty() {
            return (1, false);
        }
        let mut out = (0, live.iter().all(|&t| !m.enabled(s, t)));
        for t in live.into_iter().filter(|&t| m.enabled(s, t)) {
            let mut c = s.clone();
            let (n, bad) = match m.step(&mut c, t).and_then(|()| m.invariant(&c)) {
                Ok(()) => naive(m, &c),
                Err(_) => (0, true),
            };
            out = (out.0 + n, out.1 || bad);
        }
        out
    }

    #[test]
    fn pruning_preserves_clean_verdict() {
        let m = CddModel::new(scenario_three(Defect::None));
        let ((schedules, failed), r) = (naive(&m, &m.init()), Explorer::default().explore(&m));
        assert!(!failed && r.clean());
        assert!(r.pruned > 0, "no pruning happened");
        assert!(r.schedules < schedules, "pruning did not reduce work: {schedules} unpruned");
    }

    #[test]
    fn history_records_complete_ops() {
        let m = CddModel::new(scenario_reader(Defect::None));
        let (s, fail) = sim_core::explore::replay(&m, &[], 64);
        assert!(fail.is_none(), "{fail:?}");
        assert_eq!(s.history.len(), 2);
        for r in &s.history {
            assert!(r.inv <= r.resp);
        }
    }
}
