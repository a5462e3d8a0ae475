//! Deterministic fault scheduling: the [`FaultPlan`].
//!
//! A fault plan is a script of events to fire *during* engine execution,
//! either at exact simulated times or when a scripted workload reaches a
//! given op index. The plan itself is payload-agnostic — `sim-core` knows
//! nothing about disks or NICs — so the storage layer defines its own
//! fault event type and drives the plan through
//! [`Engine::run_until`](crate::Engine::run_until): run up to the next
//! scheduled time, take the due events, apply them to the system under
//! test, continue. Because both triggers are expressed in simulated time
//! and deterministic counters, the same seed and the same plan always
//! produce the same execution — the property the fault-sweep verify pass
//! fingerprints.

use crate::time::SimTime;

/// A deterministic schedule of fault events.
///
/// Time-triggered events pop in `(time, insertion order)` order via
/// [`FaultPlan::take_due`]; op-triggered events pop when the workload
/// announces their op index via [`FaultPlan::hit_op`]. An op index the
/// workload never reaches stays [`pending`](FaultPlan::pending).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan<F> {
    /// Time-triggered events, kept sorted by `(time, seq)`.
    timed: Vec<(SimTime, u64, F)>,
    /// Op-triggered events, in insertion order.
    at_ops: Vec<(u64, F)>,
    /// Insertion counter (stable tie-break for equal times).
    seq: u64,
}

impl<F> FaultPlan<F> {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan { timed: Vec::new(), at_ops: Vec::new(), seq: 0 }
    }

    /// Schedule `fault` at simulated time `t`.
    pub fn at(&mut self, t: SimTime, fault: F) -> &mut Self {
        let seq = self.seq;
        self.seq += 1;
        let pos = self.timed.partition_point(|&(ft, fs, _)| (ft, fs) <= (t, seq));
        self.timed.insert(pos, (t, seq, fault));
        self
    }

    /// Schedule `fault` just before op number `op` (0-based) of the
    /// scripted workload.
    pub fn at_op(&mut self, op: u64, fault: F) -> &mut Self {
        self.at_ops.push((op, fault));
        self
    }

    /// Earliest still-pending time trigger.
    pub fn next_time(&self) -> Option<SimTime> {
        self.timed.first().map(|&(t, _, _)| t)
    }

    /// Pop every time-triggered fault due at or before `now`, in schedule
    /// order.
    pub fn take_due(&mut self, now: SimTime) -> Vec<F> {
        let n = self.timed.partition_point(|&(t, _, _)| t <= now);
        self.timed.drain(..n).map(|(_, _, f)| f).collect()
    }

    /// The workload is about to issue op number `op`: pop every fault
    /// scheduled for it, in insertion order.
    pub fn hit_op(&mut self, op: u64) -> Vec<F> {
        let (due, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.at_ops).into_iter().partition(|(at, _)| *at == op);
        self.at_ops = rest;
        due.into_iter().map(|(_, f)| f).collect()
    }

    /// Still-pending events (timed + op-triggered).
    pub fn pending(&self) -> usize {
        self.timed.len() + self.at_ops.len()
    }

    /// True when every scheduled event has fired.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_faults_pop_in_time_then_insertion_order() {
        let mut p = FaultPlan::new();
        p.at(SimTime(50), "b").at(SimTime(10), "a").at(SimTime(50), "c");
        assert_eq!(p.next_time(), Some(SimTime(10)));
        assert_eq!(p.take_due(SimTime(9)), Vec::<&str>::new());
        assert_eq!(p.take_due(SimTime(10)), vec!["a"]);
        assert_eq!(p.take_due(SimTime(100)), vec!["b", "c"]);
        assert!(p.is_empty());
    }

    #[test]
    fn op_faults_fire_at_their_op_in_insertion_order() {
        let mut p = FaultPlan::new();
        p.at_op(2, "late").at_op(1, "first").at_op(1, "second").at_op(9, "unreached");
        assert_eq!(p.hit_op(0), Vec::<&str>::new());
        assert_eq!(p.hit_op(1), vec!["first", "second"]);
        assert_eq!(p.hit_op(1), Vec::<&str>::new(), "a fault fires once");
        assert_eq!(p.hit_op(2), vec!["late"]);
        // The script ended before op 9: the trigger stays pending, which
        // is what every fault-sweep cell asserts against.
        assert_eq!(p.pending(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn replaying_the_same_plan_is_deterministic() {
        let build = || {
            let mut p = FaultPlan::new();
            for i in 0..10u64 {
                p.at(SimTime(i % 3), i);
            }
            let mut out = Vec::new();
            out.extend(p.take_due(SimTime(0)));
            out.extend(p.take_due(SimTime(5)));
            out
        };
        assert_eq!(build(), build());
    }
}
