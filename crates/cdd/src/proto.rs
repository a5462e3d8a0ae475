//! `raidx-model` protocol scenarios — small multi-client CDD programs the
//! schedule explorer can exhaustively interleave.
//!
//! A [`Scenario`] gives each client a script of group operations
//! ([`ProtoOp`]); compilation breaks every operation into *micro-steps*
//! (acquire the lock group, write/read one block, release) so the
//! explorer can preempt between any two. [`CddModel`] implements
//! [`sim_core::explore::Model`] over the shared [`ProtoState`]: the real
//! [`LockGroupTable`], a flat block store standing in for the Single I/O
//! Space, and a recorded operation history for post-hoc linearizability
//! checking.
//!
//! **Invariants checked while exploring** (the paper's CDD consistency
//! contract): no two live grants of different owners overlap (grants are
//! exclusive write permissions), every store write is covered by a grant
//! held by the writer (when `assert_coverage` is on), and every schedule
//! terminates (a client blocked forever is a lost wakeup / deadlock,
//! which the explorer reports).
//!
//! **Seeded defects.** [`Defect`] plants one of five protocol bugs so the
//! checker's tests can prove each detection path actually fires; see the
//! variant docs for which signal catches which bug.

use std::collections::BTreeMap;

use crate::compile::{compile_op, CompiledOp, MicroStep};
use crate::locks::{LockGroupTable, LockHandle};
use crate::scenarios::{Defect, HistOp, OpRecord, ProtoOp, Scenario};
use sim_core::explore::{Footprint, Model, ThreadId};

/// Abstract footprint cell of the shared lock-group table.
pub const TABLE_CELL: u64 = 0;

/// Abstract footprint cell of logical block `lb` (offset past the table).
pub fn block_cell(lb: u64) -> u64 {
    1 + lb
}

/// Per-client execution state.
#[derive(Debug, Clone)]
pub struct ClientState {
    op_idx: usize,
    step_idx: usize,
    handles: Vec<LockHandle>,
    waiting: bool,
    op_inv: Option<u64>,
    read_vals: Vec<u64>,
}

/// The shared state the explorer clones at every branch point.
#[derive(Debug, Clone)]
pub struct ProtoState {
    /// The real CDD lock-group table.
    pub table: LockGroupTable,
    /// The Single-I/O-Space stand-in: one value per logical block.
    pub store: Vec<u64>,
    /// Completed operations, for the linearizability checker.
    pub history: Vec<OpRecord>,
    /// Current cluster-map epoch (0 until a [`ProtoOp::Reconfig`] bumps it).
    pub epoch: u64,
    /// New-home cell of the migrating block ([`Scenario::mig`]).
    pub shadow: u64,
    /// True while the migrating block still awaits its copy: reads of it
    /// are served from the old home, a new-epoch write clears the flag.
    pub pending: bool,
    /// Global step counter (real-time order for inv/resp stamps).
    pub steps: u64,
    /// Per-client block caches (block → cached value) backing the
    /// lock-free [`ProtoOp::CachedReadGroup`] micro-steps; writers'
    /// coherent `WriteInv` micro-steps purge entries from every cache
    /// atomically with the store update.
    pub caches: Vec<BTreeMap<u64, u64>>,
    /// Per-client execution state.
    pub clients: Vec<ClientState>,
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
        ProtoState {
            table: LockGroupTable::new(),
            store: vec![0; self.scenario.blocks as usize],
            history: Vec::new(),
            epoch: 0,
            shadow: 0,
            pending: false,
            steps: 0,
            caches: self.programs.iter().map(|_| BTreeMap::new()).collect(),
            clients: self
                .programs
                .iter()
                .map(|_| ClientState {
                    op_idx: 0,
                    step_idx: 0,
                    handles: Vec::new(),
                    waiting: false,
                    op_inv: None,
                    read_vals: Vec::new(),
                })
                .collect(),
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
            MicroStep::Write { lb, .. } | MicroStep::Read { lb } => {
                Footprint::cells(vec![block_cell(lb)])
            }
            // Cached reads and coherent writes race through the block's
            // coherence state: both touch the block cell so the explorer
            // interleaves them against each other and plain accesses.
            MicroStep::CacheRead { lb } | MicroStep::WriteInv { lb, .. } => {
                Footprint::cells(vec![block_cell(lb)])
            }
            // Both touch the migrating block's routing state (epoch /
            // pending / shadow), which its reads and writes consult.
            MicroStep::Bump | MicroStep::Migrate { .. } => {
                Footprint::cells(vec![block_cell(self.scenario.mig.unwrap_or(0))])
            }
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
            MicroStep::Write { lb, val } | MicroStep::WriteInv { lb, val } => {
                if self.scenario.assert_coverage {
                    let covered = s.clients[t].handles.iter().any(|&h| {
                        s.table
                            .record_of(h)
                            .is_some_and(|r| r.owner == t && r.start <= lb && lb < r.start + r.len)
                    });
                    if !covered {
                        return Err(format!(
                            "client {t} writes block {lb} without a covering grant"
                        ));
                    }
                }
                if self.scenario.mig == Some(lb) && s.epoch > 0 {
                    // New-epoch write: lands at the new home and supersedes
                    // any still-outstanding migration copy.
                    s.shadow = val;
                    s.pending = false;
                } else {
                    s.store[lb as usize] = val;
                }
                if matches!(comp.steps[step_idx], MicroStep::WriteInv { .. }) {
                    // The grant's coherence action, atomic with the store
                    // update: no client may keep a superseded copy.
                    for cache in &mut s.caches {
                        cache.remove(&lb);
                    }
                }
            }
            MicroStep::Read { lb } => {
                let v = if self.scenario.mig == Some(lb) && s.epoch > 0 {
                    if s.pending {
                        s.store[lb as usize] // still draining: old home
                    } else {
                        s.shadow
                    }
                } else {
                    s.store[lb as usize]
                };
                s.clients[t].read_vals.push(v);
            }
            MicroStep::CacheRead { lb } => {
                let v = match s.caches[t].get(&lb) {
                    Some(&v) => v,
                    None => {
                        // Miss: read the store (same epoch routing as a
                        // plain read) and fill the client's cache.
                        let v = if self.scenario.mig == Some(lb) && s.epoch > 0 {
                            if s.pending {
                                s.store[lb as usize]
                            } else {
                                s.shadow
                            }
                        } else {
                            s.store[lb as usize]
                        };
                        s.caches[t].insert(lb, v);
                        v
                    }
                };
                s.clients[t].read_vals.push(v);
            }
            MicroStep::Bump => {
                s.epoch += 1;
                s.pending = true;
            }
            MicroStep::Migrate { revalidate } => {
                if !revalidate || s.pending {
                    s.shadow = s.store[self.scenario.mig.unwrap_or(0) as usize];
                    s.pending = false;
                }
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
                    ProtoOp::Reconfig => None,
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
    use sim_core::explore::{Explorer, FailureKind};

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

    #[test]
    fn double_grant_violates_invariant() {
        let r =
            Explorer::default().explore(&CddModel::new(scenario_contended(Defect::DoubleGrant)));
        let f = r.failure.expect("double grant not caught");
        assert!(matches!(f.kind, FailureKind::Invariant(_)), "{f}");
    }

    #[test]
    fn skipped_wakeup_deadlocks() {
        let r = Explorer::default().explore(&CddModel::new(scenario_contended(Defect::SkipWakeup)));
        let f = r.failure.expect("lost wakeup not caught");
        assert!(matches!(f.kind, FailureKind::Deadlock(_)), "{f}");
    }

    #[test]
    fn split_acquire_deadlocks() {
        let r =
            Explorer::default().explore(&CddModel::new(scenario_contended(Defect::SplitAcquire)));
        let f = r.failure.expect("ABBA deadlock not caught");
        assert!(matches!(f.kind, FailureKind::Deadlock(_)), "{f}");
    }

    #[test]
    fn early_release_fails_coverage() {
        let r =
            Explorer::default().explore(&CddModel::new(scenario_contended(Defect::EarlyRelease)));
        let f = r.failure.expect("uncovered write not caught");
        assert!(matches!(f.kind, FailureKind::Step(_)), "{f}");
    }

    #[test]
    fn pruning_preserves_clean_verdict() {
        let full = Explorer { sleep_sets: false, ..Explorer::default() };
        let pruned = Explorer::default();
        let a = full.explore(&CddModel::new(scenario_three(Defect::None)));
        let b = pruned.explore(&CddModel::new(scenario_three(Defect::None)));
        assert!(a.clean() && b.clean());
        assert!(b.pruned > 0, "no pruning happened");
        assert!(b.steps <= a.steps, "pruning did not reduce work");
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
