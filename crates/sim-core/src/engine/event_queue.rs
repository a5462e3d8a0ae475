//! The event queue: a monotone radix queue keyed by time alone.
//!
//! It pops in `(time, push order)`, the order of a binary heap over
//! `(time, sequence number)`, without storing a sequence number. No key
//! is ever below `last`, the time of the last pop: the engine never
//! schedules into the past. An event at `last` waits in a FIFO run; any
//! other event files into bucket `63 − lzcnt(t ^ last)`, the highest bit
//! in which its time differs from `last`, so every key in a lower bucket
//! is smaller than every key in a higher one. A pop takes from the run,
//! or else from the lowest non-empty bucket: a lone entry is popped
//! directly, otherwise the bucket's minimum becomes `last`, its entries
//! at that minimum move to the run and the rest re-file into lower
//! buckets, all of which are empty.
//!
//! The order is exact. Events with equal times always share a bucket
//! (the bucket is a function of the time and `last`), and every move is
//! an in-order append, so within one time the order is push order.
//!
//! A push onto an empty queue parks the event in a slot, and a second
//! push files the slot's event before its own: a simulation with one
//! event in flight at a time never touches the buckets.

use std::collections::VecDeque;

use super::EventKind;
use crate::time::SimTime;

pub(super) struct EventQueue {
    /// Time of the last pop; no queued event is earlier.
    last: u64,
    /// The events at `last`, in push order.
    run: VecDeque<EventKind>,
    /// The events after `last`, by the highest bit in which their time
    /// differs from it; each bucket in push order.
    buckets: [Vec<(u64, EventKind)>; 64],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    mask: u64,
    /// The only queued event, while the population is one.
    lone: Option<(u64, EventKind)>,
    /// Queued events, `lone` included.
    len: usize,
}

impl EventQueue {
    pub(super) fn new() -> Self {
        EventQueue {
            last: 0,
            run: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mask: 0,
            lone: None,
            len: 0,
        }
    }

    /// Number of queued events.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Queue `kind` at `time`, which must not precede the last pop.
    pub(super) fn push(&mut self, time: SimTime, kind: EventKind) {
        let t = time.as_nanos();
        debug_assert!(t >= self.last, "event queued before the last pop");
        self.len += 1;
        if self.len == 1 {
            self.lone = Some((t, kind));
            return;
        }
        if let Some((lt, lk)) = self.lone.take() {
            self.file(lt, lk);
        }
        self.file(t, kind);
    }

    fn file(&mut self, t: u64, kind: EventKind) {
        if t == self.last {
            self.run.push_back(kind);
        } else {
            let b = 63 - (t ^ self.last).leading_zeros() as usize;
            self.buckets[b].push((t, kind));
            self.mask |= 1 << b;
        }
    }

    /// Pop the earliest event if it is due at or before `limit`, which
    /// must not precede the last pop. When it is not due, nothing moves:
    /// `last` never passes `limit`, so a later push at any time from
    /// `last` on stays legal.
    pub(super) fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, EventKind)> {
        let limit = limit.as_nanos();
        debug_assert!(limit >= self.last, "pop_due limit before the last pop");
        if let Some((t, kind)) = self.lone {
            if t > limit {
                return None;
            }
            self.lone = None;
            self.last = t;
            self.len -= 1;
            return Some((SimTime(t), kind));
        }
        if let Some(kind) = self.run.pop_front() {
            self.len -= 1;
            return Some((SimTime(self.last), kind));
        }
        if self.mask == 0 {
            return None;
        }
        let b = self.mask.trailing_zeros() as usize;
        let bucket = &mut self.buckets[b];
        let min = bucket.iter().map(|&(t, _)| t).min()?;
        if min > limit {
            return None;
        }
        self.last = min;
        self.mask &= !(1 << b);
        self.len -= 1;
        if bucket.len() == 1 {
            return bucket.pop().map(|(t, kind)| (SimTime(t), kind));
        }
        let mut bucket = std::mem::take(bucket);
        for (t, kind) in bucket.drain(..) {
            self.file(t, kind);
        }
        self.buckets[b] = bucket;
        self.run.pop_front().map(|kind| (SimTime(min), kind))
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::mem::size_of;

    use super::super::{EventKind, TaskId};
    use super::EventQueue;
    use crate::check::{run_cases, Gen};
    use crate::time::SimTime;

    /// A queue entry is touched on every push and every re-file.
    #[test]
    fn queue_entries_stay_small() {
        let entry = size_of::<(u64, EventKind)>();
        assert!(entry <= 16, "a queue entry is {entry} bytes");
    }

    /// The queue beside the order it must reproduce: a binary heap over
    /// `(time, push index)`. Each event carries its push index.
    struct Oracle {
        queue: EventQueue,
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        pushed: u64,
        /// Time of the last pop, the earliest time a push may use.
        last: u64,
    }

    impl Oracle {
        fn push(&mut self, t: u64) {
            self.queue.push(SimTime(t), EventKind::Resume(TaskId(self.pushed as u32)));
            self.heap.push(Reverse((t, self.pushed)));
            self.pushed += 1;
            assert_eq!(self.queue.len(), self.heap.len());
        }

        /// Pop from both if due by `limit`; true if something was due.
        fn pop_due(&mut self, limit: u64) -> bool {
            let lone = self.queue.lone.is_some();
            let want = match self.heap.peek() {
                Some(&Reverse((t, i))) if t <= limit => {
                    self.heap.pop();
                    Some((SimTime(t), EventKind::Resume(TaskId(i as u32))))
                }
                _ => None,
            };
            let (last, len) = (self.queue.last, self.queue.len());
            let got = self.queue.pop_due(SimTime(limit));
            assert_eq!(got, want, "lone slot occupied: {lone}");
            match got {
                Some((t, _)) => self.last = t.as_nanos(),
                None => assert_eq!((self.queue.last, self.queue.len()), (last, len)),
            }
            got.is_some()
        }

        /// A time from `last` on: equal to it, or a gap of up to 2^4,
        /// 2^20 or 2^62 ns past it.
        fn time(&self, g: &mut Gen) -> u64 {
            let gap = match g.weighted(&[2, 4, 3, 1]) {
                0 => 0,
                1 => g.u64_in(0..1 << 4),
                2 => g.u64_in(0..1 << 20),
                _ => g.u64_in(0..1 << 62),
            };
            self.last.saturating_add(gap)
        }
    }

    #[test]
    fn pops_in_time_then_push_order() {
        // Which paths the schedules reached: the slot, a refused
        // `pop_due` followed by earlier pushes, a burst of over 100.
        let mut reached = [false; 3];
        run_cases("event-queue-order", 600, |g| {
            let mut o =
                Oracle { queue: EventQueue::new(), heap: BinaryHeap::new(), pushed: 0, last: 0 };
            for _ in 0..g.usize_in(1..24) {
                match g.weighted(&[4, 3, 3, 2, 2, 1]) {
                    // An equal-time burst.
                    0 => {
                        let n = if g.weighted(&[5, 1]) == 0 {
                            g.usize_in(1..8)
                        } else {
                            g.usize_in(100..201)
                        };
                        reached[2] |= n > 100;
                        let t = o.time(g);
                        (0..n).for_each(|_| o.push(t));
                    }
                    // Scattered pushes.
                    1 => {
                        for _ in 0..g.usize_in(1..8) {
                            let t = o.time(g);
                            o.push(t);
                        }
                    }
                    // A lone event, popped or joined by a second push.
                    2 => {
                        while o.pop_due(u64::MAX) {}
                        let t = o.time(g);
                        o.push(t);
                        reached[0] |= o.queue.lone.is_some();
                        if g.bool() {
                            let t = o.time(g);
                            o.push(t);
                        }
                    }
                    // Interleaved pops.
                    3 => {
                        for _ in 0..g.usize_in(1..8) {
                            o.pop_due(u64::MAX);
                        }
                    }
                    // `pop_due` at an arbitrary limit.
                    4 => {
                        let limit = o.time(g);
                        while o.pop_due(limit) {}
                    }
                    // `pop_due` below every queued time, then pushes
                    // between the last pop and that limit.
                    _ => {
                        let Some(&Reverse((min, _))) = o.heap.peek() else { continue };
                        if min == o.last {
                            continue;
                        }
                        let limit = g.u64_in(o.last..min);
                        assert!(!o.pop_due(limit));
                        for _ in 0..g.usize_in(1..8) {
                            let t = g.u64_in(o.last..limit + 1);
                            o.push(t);
                        }
                        reached[1] = true;
                    }
                }
            }
            while o.pop_due(u64::MAX) {}
        });
        assert_eq!(reached, [true; 3], "(slot, refused pop_due, burst > 100)");
    }
}
