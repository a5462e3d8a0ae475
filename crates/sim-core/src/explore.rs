//! Controlled-scheduler interleaving exploration — the substrate of the
//! `raidx-model` checker.
//!
//! A [`Model`] describes a small concurrent program: a fixed set of
//! logical threads advancing one *atomic step* at a time over a shared,
//! cloneable state. The [`Explorer`] enumerates thread interleavings by
//! depth-first search, checking a state invariant after every step,
//! detecting deadlocks (no enabled thread while some are unfinished — the
//! shape a lost wakeup takes), and running an optional leaf check over
//! every completed schedule (e.g. a linearizability audit of the recorded
//! history).
//!
//! **Pruning.** The explorer applies the classic sleep-set refinement of
//! partial-order reduction (the non-vector-clock half of DPOR): after a
//! branch on thread `t` is fully explored, sibling branches need not
//! re-interleave steps *independent* of `t`'s step. Independence comes
//! from [`Footprint`]s — the abstract cells a thread's next step reads or
//! writes; steps with disjoint footprints commute. Footprints must be
//! conservative: if two steps could interact through any observable
//! channel (including assertions), their footprints must intersect.
//! Histories recorded for post-hoc checking are exempt — two truly
//! independent steps produce histories equivalent up to reordering of
//! concurrent records, which a correct history checker treats alike.
//!
//! **Counterexamples.** A failure carries the schedule (thread choice
//! sequence) that produced it, minimized with [`crate::check::shrink_list`]
//! before reporting. A minimized schedule is replayed as "follow these
//! choices, then continue round-robin" — see [`replay`].

use crate::check::shrink_list;

/// Index of a logical thread inside a [`Model`].
pub type ThreadId = usize;

/// The abstract cells a thread's next step touches, for the independence
/// relation that drives sleep-set pruning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Footprint {
    /// Conservatively dependent with every other step.
    Global,
    /// Touches exactly this (sorted, deduplicated) set of abstract cells.
    Cells(Vec<u64>),
}

impl Footprint {
    /// A cell-set footprint (sorts and deduplicates `cells`).
    pub fn cells(mut cells: Vec<u64>) -> Self {
        cells.sort_unstable();
        cells.dedup();
        Footprint::Cells(cells)
    }

    /// Do the two footprints touch disjoint cells (i.e. commute)?
    pub fn independent(&self, other: &Footprint) -> bool {
        match (self, other) {
            (Footprint::Global, _) | (_, Footprint::Global) => false,
            (Footprint::Cells(a), Footprint::Cells(b)) => {
                // Both sorted: linear disjointness merge.
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => return false,
                    }
                }
                true
            }
        }
    }
}

/// A small concurrent program the explorer can drive.
pub trait Model {
    /// Shared state, cloned at every branch point of the search.
    type State: Clone;

    /// The initial shared state.
    fn init(&self) -> Self::State;

    /// Number of logical threads (at most 64).
    fn threads(&self) -> usize;

    /// Has thread `t` run to completion?
    fn done(&self, s: &Self::State, t: ThreadId) -> bool;

    /// Can thread `t` take a step right now? A thread that is not done
    /// and not enabled is *blocked* (e.g. waiting on a lock grant); if
    /// every unfinished thread blocks, the explorer reports a deadlock.
    fn enabled(&self, s: &Self::State, t: ThreadId) -> bool {
        !self.done(s, t)
    }

    /// Footprint of thread `t`'s next step. Only called when `t` is not
    /// done. Must be conservative (see module docs).
    fn footprint(&self, s: &Self::State, t: ThreadId) -> Footprint;

    /// Execute one atomic step of thread `t`. `Err` fails the schedule
    /// (a step-level assertion, e.g. "write without a covering grant").
    fn step(&self, s: &mut Self::State, t: ThreadId) -> Result<(), String>;

    /// Whole-state invariant, checked after every step.
    fn invariant(&self, _s: &Self::State) -> Result<(), String> {
        Ok(())
    }
}

/// What went wrong on a failing schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// A step-level assertion inside [`Model::step`] failed.
    Step(String),
    /// The whole-state invariant failed after a step.
    Invariant(String),
    /// No thread was enabled while these threads were still unfinished
    /// (deadlock / lost wakeup).
    Deadlock(Vec<ThreadId>),
    /// The per-schedule leaf check (e.g. linearizability) failed.
    Leaf(String),
    /// The search exceeded `max_depth` — the model does not terminate
    /// within the configured bound.
    Depth,
}

/// A failing schedule and its diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The thread choices from the initial state up to the failure.
    /// After shrinking, replaying these choices and then continuing
    /// round-robin (see [`replay`]) reproduces the failure.
    pub schedule: Vec<ThreadId>,
    /// The diagnosis.
    pub kind: FailureKind,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match &self.kind {
            FailureKind::Step(m) => format!("step assertion: {m}"),
            FailureKind::Invariant(m) => format!("invariant violated: {m}"),
            FailureKind::Deadlock(ts) => format!("deadlock/lost wakeup, blocked threads {ts:?}"),
            FailureKind::Leaf(m) => format!("leaf check failed: {m}"),
            FailureKind::Depth => "depth bound exceeded".to_string(),
        };
        write!(f, "{what} (schedule {:?})", self.schedule)
    }
}

/// Aggregate result of one exploration.
#[derive(Debug, Clone, Default)]
pub struct Exploration {
    /// Complete schedules reaching a leaf (all threads done).
    pub schedules: u64,
    /// Total atomic steps executed.
    pub steps: u64,
    /// Branches skipped by sleep-set pruning.
    pub pruned: u64,
    /// True when the schedule budget ran out before full coverage.
    pub truncated: bool,
    /// The first failure found (minimized), if any.
    pub failure: Option<Failure>,
}

impl Exploration {
    /// True when exploration finished without finding any defect.
    pub fn clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Depth-first schedule explorer with sleep-set pruning and schedule
/// shrinking.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Abort with [`FailureKind::Depth`] past this many steps on one path.
    pub max_depth: usize,
    /// Stop exploring (reporting `truncated`) after this many complete
    /// schedules.
    pub max_schedules: u64,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer { max_depth: 256, max_schedules: 100_000 }
    }
}

impl Explorer {
    /// Explore all interleavings of `m` (within budget), checking step
    /// results and the state invariant.
    pub fn explore<M: Model>(&self, m: &M) -> Exploration {
        self.explore_with(m, |_| Ok(()))
    }

    /// Like [`Explorer::explore`], additionally running `on_leaf` against
    /// the final state of every complete schedule (e.g. a linearizability
    /// check over the recorded history).
    pub fn explore_with<M: Model>(
        &self,
        m: &M,
        mut on_leaf: impl FnMut(&M::State) -> Result<(), String>,
    ) -> Exploration {
        assert!(m.threads() <= 64, "at most 64 threads");
        let mut out = Exploration::default();
        let mut sched = Vec::new();
        let init = m.init();
        self.dfs(m, &init, &mut sched, 0, &mut on_leaf, &mut out);
        if let Some(f) = out.failure.take() {
            out.failure = Some(minimize(m, f, &mut on_leaf, self.max_depth));
        }
        out
    }

    /// Returns false to abort the whole search (failure found or budget
    /// exhausted). `sleep` is a bitmask of sleeping threads.
    fn dfs<M: Model>(
        &self,
        m: &M,
        s: &M::State,
        sched: &mut Vec<ThreadId>,
        sleep: u64,
        on_leaf: &mut impl FnMut(&M::State) -> Result<(), String>,
        out: &mut Exploration,
    ) -> bool {
        let n = m.threads();
        let mut enabled = Vec::new();
        let mut unfinished = Vec::new();
        for t in 0..n {
            if !m.done(s, t) {
                unfinished.push(t);
                if m.enabled(s, t) {
                    enabled.push(t);
                }
            }
        }
        if unfinished.is_empty() {
            out.schedules += 1;
            if let Err(e) = on_leaf(s) {
                out.failure = Some(Failure { schedule: sched.clone(), kind: FailureKind::Leaf(e) });
                return false;
            }
            if out.schedules >= self.max_schedules {
                out.truncated = true;
                return false;
            }
            return true;
        }
        if enabled.is_empty() {
            out.failure =
                Some(Failure { schedule: sched.clone(), kind: FailureKind::Deadlock(unfinished) });
            return false;
        }
        if sched.len() >= self.max_depth {
            out.failure = Some(Failure { schedule: sched.clone(), kind: FailureKind::Depth });
            return false;
        }
        let mut explored: Vec<(ThreadId, Footprint)> = Vec::new();
        for &t in &enabled {
            if (sleep >> t) & 1 == 1 {
                out.pruned += 1;
                continue;
            }
            let fp_t = m.footprint(s, t);
            let mut child = s.clone();
            sched.push(t);
            out.steps += 1;
            if let Err(e) = m.step(&mut child, t) {
                out.failure = Some(Failure { schedule: sched.clone(), kind: FailureKind::Step(e) });
                return false;
            }
            if let Err(e) = m.invariant(&child) {
                out.failure =
                    Some(Failure { schedule: sched.clone(), kind: FailureKind::Invariant(e) });
                return false;
            }
            // Sleeping threads stay asleep while independent of the step
            // just taken; fully-explored siblings fall asleep on the same
            // condition.
            let mut child_sleep = 0u64;
            for x in 0..n {
                if (sleep >> x) & 1 == 1 && !m.done(s, x) && m.footprint(s, x).independent(&fp_t) {
                    child_sleep |= 1 << x;
                }
            }
            for (x, fp_x) in &explored {
                if fp_x.independent(&fp_t) {
                    child_sleep |= 1 << x;
                }
            }
            if !self.dfs(m, &child, sched, child_sleep, on_leaf, out) {
                return false;
            }
            sched.pop();
            explored.push((t, fp_t));
        }
        true
    }
}

/// Replay `schedule` from the initial state: follow the recorded choices
/// while they are valid (skipping entries whose thread is done or
/// blocked), then continue deterministically (lowest enabled thread
/// first) for up to `max_extra` steps. Returns the final state and the
/// failure encountered, if any — including the leaf check on completion.
pub fn replay_with<M: Model>(
    m: &M,
    schedule: &[ThreadId],
    max_extra: usize,
    mut on_leaf: impl FnMut(&M::State) -> Result<(), String>,
) -> (M::State, Option<FailureKind>) {
    let mut s = m.init();
    let n = m.threads();
    let mut extra = 0usize;
    let mut idx = 0usize;
    loop {
        let unfinished: Vec<ThreadId> = (0..n).filter(|&t| !m.done(&s, t)).collect();
        if unfinished.is_empty() {
            let r = on_leaf(&s).err().map(FailureKind::Leaf);
            return (s, r);
        }
        if !unfinished.iter().any(|&t| m.enabled(&s, t)) {
            return (s, Some(FailureKind::Deadlock(unfinished)));
        }
        let choice = loop {
            match schedule.get(idx) {
                Some(&t) => {
                    idx += 1;
                    if t < n && !m.done(&s, t) && m.enabled(&s, t) {
                        break Some(t);
                    }
                    // Invalid entry (shrinking removed context): skip it.
                }
                None => break None,
            }
        };
        let t = match choice {
            Some(t) => t,
            None => {
                if extra >= max_extra {
                    return (s, None);
                }
                extra += 1;
                match (0..n).find(|&t| !m.done(&s, t) && m.enabled(&s, t)) {
                    Some(t) => t,
                    None => return (s, None),
                }
            }
        };
        if let Err(e) = m.step(&mut s, t) {
            return (s, Some(FailureKind::Step(e)));
        }
        if let Err(e) = m.invariant(&s) {
            return (s, Some(FailureKind::Invariant(e)));
        }
    }
}

/// Replay without a leaf check.
pub fn replay<M: Model>(
    m: &M,
    schedule: &[ThreadId],
    max_extra: usize,
) -> (M::State, Option<FailureKind>) {
    replay_with(m, schedule, max_extra, |_| Ok(()))
}

/// Minimize a failing schedule: greedy deletion under the oracle "replay
/// still fails somehow", then re-derive the (possibly different) failure
/// kind from the minimized schedule.
fn minimize<M: Model>(
    m: &M,
    found: Failure,
    on_leaf: &mut impl FnMut(&M::State) -> Result<(), String>,
    max_extra: usize,
) -> Failure {
    let minimal = shrink_list(&found.schedule, |cand| {
        replay_with(m, cand, max_extra, &mut *on_leaf).1.is_some()
    });
    let (_, kind) = replay_with(m, &minimal, max_extra, on_leaf);
    match kind {
        Some(kind) => Failure { schedule: minimal, kind },
        // Shrinking never accepts a non-failing candidate, but guard
        // against a flaky oracle by falling back to the original.
        None => found,
    }
}

#[cfg(test)]
mod tests;
