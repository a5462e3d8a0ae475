use super::*;

/// Two threads each do load; add; store (non-atomic increment).
struct RacyCounter {
    atomic: bool,
}

#[derive(Clone)]
struct CounterState {
    value: u64,
    loaded: [Option<u64>; 2],
    pc: [usize; 2],
}

impl Model for RacyCounter {
    type State = CounterState;
    fn init(&self) -> CounterState {
        CounterState { value: 0, loaded: [None, None], pc: [0, 0] }
    }
    fn threads(&self) -> usize {
        2
    }
    fn done(&self, s: &CounterState, t: ThreadId) -> bool {
        s.pc[t] >= if self.atomic { 1 } else { 2 }
    }
    fn footprint(&self, _s: &CounterState, _t: ThreadId) -> Footprint {
        Footprint::cells(vec![0])
    }
    fn step(&self, s: &mut CounterState, t: ThreadId) -> Result<(), String> {
        if self.atomic {
            s.value += 1;
        } else if s.pc[t] == 0 {
            s.loaded[t] = Some(s.value);
        } else {
            s.value = s.loaded[t].ok_or("store before load")? + 1;
        }
        s.pc[t] += 1;
        Ok(())
    }
}

fn counter_leaf(s: &CounterState) -> Result<(), String> {
    if s.value == 2 {
        Ok(())
    } else {
        Err(format!("lost update: final value {}", s.value))
    }
}

#[test]
fn finds_lost_update() {
    let ex = Explorer::default();
    let r = ex.explore_with(&RacyCounter { atomic: false }, counter_leaf);
    let f = r.failure.expect("race not found");
    assert!(matches!(f.kind, FailureKind::Leaf(_)), "{f}");
    // Minimized: the interleaving load0 load1 store store (4 steps,
    // possibly fewer recorded thanks to round-robin continuation).
    assert!(f.schedule.len() <= 4, "not shrunk: {:?}", f.schedule);
    let (_, kind) = replay_with(&RacyCounter { atomic: false }, &f.schedule, 16, counter_leaf);
    assert!(kind.is_some(), "minimized schedule does not reproduce");
}

#[test]
fn atomic_counter_is_clean() {
    let ex = Explorer::default();
    let r = ex.explore_with(&RacyCounter { atomic: true }, counter_leaf);
    assert!(r.clean(), "{:?}", r.failure);
    assert!(r.schedules >= 1);
}

/// Two binary locks; each thread acquires both (pc 0 and 1), then
/// releases both (pc 2). Thread 0 takes A then B; thread 1 takes B
/// then A (or A then B when `ordered`) — the classic ABBA deadlock.
struct TwoLocks {
    ordered: bool,
}

#[derive(Clone)]
struct LockState {
    held: [Option<ThreadId>; 2],
    pc: [usize; 2],
}

impl TwoLocks {
    fn wants(&self, t: ThreadId, pc: usize) -> usize {
        match (t, self.ordered) {
            (0, _) | (1, true) => pc, // A then B
            (1, false) => 1 - pc,     // B then A
            _ => unreachable!(),
        }
    }
}

impl Model for TwoLocks {
    type State = LockState;
    fn init(&self) -> LockState {
        LockState { held: [None, None], pc: [0, 0] }
    }
    fn threads(&self) -> usize {
        2
    }
    fn done(&self, s: &LockState, t: ThreadId) -> bool {
        s.pc[t] >= 3
    }
    fn enabled(&self, s: &LockState, t: ThreadId) -> bool {
        !self.done(s, t) && (s.pc[t] == 2 || s.held[self.wants(t, s.pc[t])].is_none())
    }
    fn footprint(&self, s: &LockState, t: ThreadId) -> Footprint {
        if s.pc[t] == 2 {
            Footprint::cells(vec![0, 1])
        } else {
            Footprint::cells(vec![self.wants(t, s.pc[t]) as u64])
        }
    }
    fn step(&self, s: &mut LockState, t: ThreadId) -> Result<(), String> {
        if s.pc[t] == 2 {
            for h in s.held.iter_mut() {
                if *h == Some(t) {
                    *h = None;
                }
            }
        } else {
            let lock = self.wants(t, s.pc[t]);
            if s.held[lock].is_some() {
                return Err(format!("lock {lock} granted twice"));
            }
            s.held[lock] = Some(t);
        }
        s.pc[t] += 1;
        Ok(())
    }
}

#[test]
fn finds_abba_deadlock_and_shrinks_it() {
    let ex = Explorer::default();
    let r = ex.explore(&TwoLocks { ordered: false });
    let f = r.failure.expect("deadlock not found");
    assert!(matches!(f.kind, FailureKind::Deadlock(_)), "{f}");
    // Minimal prefix: thread 1 grabs B before the round-robin
    // continuation lets thread 0 run — at most one step per thread.
    assert!(f.schedule.len() <= 2, "not minimized: {:?}", f.schedule);
    let (_, kind) = replay(&TwoLocks { ordered: false }, &f.schedule, 16);
    assert!(matches!(kind, Some(FailureKind::Deadlock(_))), "{kind:?}");
}

#[test]
fn ordered_locking_is_clean() {
    let r = Explorer::default().explore(&TwoLocks { ordered: true });
    assert!(r.clean(), "{:?}", r.failure);
}

/// N single-step threads, touching disjoint cells unless `shared`.
struct Independent {
    n: usize,
    shared: bool,
}

impl Model for Independent {
    type State = Vec<bool>;
    fn init(&self) -> Vec<bool> {
        vec![false; self.n]
    }
    fn threads(&self) -> usize {
        self.n
    }
    fn done(&self, s: &Vec<bool>, t: ThreadId) -> bool {
        s[t]
    }
    fn footprint(&self, _s: &Vec<bool>, t: ThreadId) -> Footprint {
        if self.shared {
            Footprint::Global
        } else {
            Footprint::cells(vec![t as u64])
        }
    }
    fn step(&self, s: &mut Vec<bool>, t: ThreadId) -> Result<(), String> {
        s[t] = true;
        Ok(())
    }
}

/// The reference the pruned explorer is held to: every interleaving of
/// `m`, enumerated without pruning. Returns the complete schedules and
/// whether any schedule failed a step, the invariant, `leaf` or deadlocked.
fn naive<M: Model>(m: &M, leaf: fn(&M::State) -> Result<(), String>) -> (u64, bool) {
    fn walk<M: Model>(
        m: &M,
        s: &M::State,
        leaf: fn(&M::State) -> Result<(), String>,
    ) -> (u64, bool) {
        let unfinished: Vec<ThreadId> = (0..m.threads()).filter(|&t| !m.done(s, t)).collect();
        if unfinished.is_empty() {
            return (1, leaf(s).is_err());
        }
        let enabled: Vec<ThreadId> = unfinished.into_iter().filter(|&t| m.enabled(s, t)).collect();
        let mut out = (0, enabled.is_empty());
        for t in enabled {
            let mut child = s.clone();
            let (n, failed) = match m.step(&mut child, t).and_then(|()| m.invariant(&child)) {
                Ok(()) => walk(m, &child, leaf),
                Err(_) => (0, true),
            };
            out = (out.0 + n, out.1 || failed);
        }
        out
    }
    walk(m, &m.init(), leaf)
}

#[test]
fn sleep_sets_collapse_independent_interleavings() {
    let model = Independent { n: 4, shared: false };
    assert_eq!(naive(&model, |_| Ok(())), (24, false), "4! interleavings unpruned");
    let r = Explorer::default().explore(&model);
    assert_eq!(r.schedules, 1, "fully independent -> one schedule");
    assert!(r.pruned > 0);
    assert!(r.clean());
}

#[test]
fn pruning_preserves_verdict_on_racy_model() {
    for atomic in [false, true] {
        let model = RacyCounter { atomic };
        let (_, failed) = naive(&model, counter_leaf);
        assert_eq!(failed, !atomic, "the lost update exists exactly when non-atomic");
        let r = Explorer::default().explore_with(&model, counter_leaf);
        assert_eq!(r.failure.is_some(), failed, "atomic={atomic}");
    }
}

#[test]
fn budget_truncates() {
    let ex = Explorer { max_schedules: 3, ..Explorer::default() };
    let r = ex.explore(&Independent { n: 4, shared: true });
    assert!(r.truncated);
    assert_eq!(r.schedules, 3);
    assert!(r.clean());
}

#[test]
fn depth_bound_reported() {
    /// A thread that never finishes.
    struct Spin;
    impl Model for Spin {
        type State = u64;
        fn init(&self) -> u64 {
            0
        }
        fn threads(&self) -> usize {
            1
        }
        fn done(&self, _s: &u64, _t: ThreadId) -> bool {
            false
        }
        fn footprint(&self, _s: &u64, _t: ThreadId) -> Footprint {
            Footprint::Global
        }
        fn step(&self, s: &mut u64, _t: ThreadId) -> Result<(), String> {
            *s += 1;
            Ok(())
        }
    }
    let ex = Explorer { max_depth: 10, ..Explorer::default() };
    let r = ex.explore(&Spin);
    assert!(matches!(r.failure, Some(Failure { kind: FailureKind::Depth, .. })));
}
