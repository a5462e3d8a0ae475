//! The engine's execution semantics through its public API: sequencing,
//! forking, queueing, background work and its traffic class, barriers,
//! partial runs, slowdown, slot reuse and custom queue disciplines.

use std::sync::{Arc, Mutex};

use sim_core::plan::{background, barrier, delay, par, seq, use_res};
use sim_core::trace::{EventLog, TraceEvent};
use sim_core::{
    BarrierId, Demand, Engine, FixedRate, JobId, Plan, ServiceModel, SimDuration, SimTime,
};

fn busy(d: u64) -> Demand {
    Demand::Busy(SimDuration::from_micros(d))
}

#[test]
fn empty_run_finishes_at_zero() {
    let mut e = Engine::new();
    let r = e.run().unwrap();
    assert_eq!(r.end, SimTime::ZERO);
}

#[test]
fn seq_adds_durations() {
    let mut e = Engine::new();
    let r = e.add_resource("cpu", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    e.spawn_job("j", seq(vec![use_res(r, busy(10)), use_res(r, busy(20))]));
    let rep = e.run().unwrap();
    assert_eq!(rep.end, SimTime(30_000));
    assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(30));
    assert_eq!(e.resource_stats(r).ops, 2);
}

#[test]
fn par_on_one_resource_serializes() {
    let mut e = Engine::new();
    let r = e.add_resource("disk", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    e.spawn_job("j", par(vec![use_res(r, busy(10)), use_res(r, busy(10))]));
    let rep = e.run().unwrap();
    assert_eq!(rep.end, SimTime(20_000));
    assert_eq!(e.resource_stats(r).max_queue, 2);
}

#[test]
fn par_on_two_resources_overlaps() {
    let mut e = Engine::new();
    let a = e.add_resource("a", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    let b = e.add_resource("b", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    e.spawn_job("j", par(vec![use_res(a, busy(10)), use_res(b, busy(10))]));
    let rep = e.run().unwrap();
    assert_eq!(rep.end, SimTime(10_000));
}

#[test]
fn fifo_queueing_and_wait_stats() {
    let mut e = Engine::new();
    let r = e.add_resource("disk", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    e.spawn_job("j1", use_res(r, busy(100)));
    e.spawn_job("j2", use_res(r, busy(100)));
    e.run().unwrap();
    // Second job waited the full first service.
    assert_eq!(e.resource_stats(r).queue_wait, SimDuration::from_micros(100));
    assert_eq!(e.jobs()[1].latency(), SimDuration::from_micros(200));
}

#[test]
fn background_does_not_gate_job_but_gates_run() {
    let mut e = Engine::new();
    let r = e.add_resource("disk", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    e.spawn_job("j", seq(vec![use_res(r, busy(10)), background(use_res(r, busy(1000)))]));
    let rep = e.run().unwrap();
    assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(10));
    assert_eq!(rep.foreground_end, SimTime(10_000));
    assert_eq!(rep.end, SimTime(1_010_000));
}

#[test]
fn background_competes_for_resources() {
    let mut e = Engine::new();
    let r = e.add_resource("disk", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    // Background write issued first occupies the disk; the foreground
    // read then queues behind it.
    e.spawn_job(
        "j",
        seq(vec![
            background(use_res(r, busy(50))),
            delay(SimDuration::from_micros(1)),
            use_res(r, busy(10)),
        ]),
    );
    e.run().unwrap();
    assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(60));
}

/// `n` detached 100 µs demands on `r`, issued back to back at one instant.
fn bg_burst(r: sim_core::ResourceId, n: u64) -> Vec<Plan> {
    (0..n).map(|_| background(use_res(r, busy(100)))).collect()
}

#[test]
fn foreground_waits_only_for_the_background_demand_in_service() {
    let mut e = Engine::new();
    let r = e.add_resource("port", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    // Eight background demands are queued when the foreground one arrives
    // at 1 µs: it waits for the one in service and for none of the rest.
    let mut plan = bg_burst(r, 8);
    plan.extend([delay(SimDuration::from_micros(1)), use_res(r, busy(10))]);
    e.spawn_job("j", seq(plan));
    let rep = e.run().unwrap();
    assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(110));
    assert_eq!(rep.end, SimTime(810_000));
    let s = e.resource_stats(r);
    assert_eq!((s.ops, s.bg_ops), (9, 8));
    assert_eq!(s.fg_queue_wait(), SimDuration::from_micros(99));
}

#[test]
fn each_class_is_served_in_arrival_order() {
    let log = EventLog::new();
    let mut e = Engine::new();
    e.set_tracer(Box::new(log.clone()));
    let r = e.add_resource("port", Box::new(FixedRate::rate(1_000_000)));
    let xfer = |bytes| use_res(r, Demand::NetXfer { bytes });
    // Arrivals alternate between the classes while 10 is in service (10 µs):
    // background 10, 20, 30 at 0, 2 and 4 µs, foreground 1, 2, 3 at 1, 3
    // and 5 µs.
    let pause = || delay(SimDuration::from_micros(2));
    e.spawn_job(
        "images",
        seq(vec![
            background(xfer(10)),
            pause(),
            background(xfer(20)),
            pause(),
            background(xfer(30)),
        ]),
    );
    for (bytes, at_us) in [(1, 1), (2, 3), (3, 5)] {
        e.spawn_job_at("fg", SimTime(at_us * 1_000), xfer(bytes));
    }
    e.run().unwrap();
    let served: Vec<u64> = log
        .events()
        .iter()
        .filter_map(|ev| match ev.event {
            TraceEvent::ServiceStarted { bytes, .. } => Some(bytes),
            _ => None,
        })
        .collect();
    assert_eq!(served, [10, 1, 2, 3, 20, 30]);
    assert_eq!(e.resource_stats(r).bg_ops, 3);
}

#[test]
fn par_children_of_a_detached_task_are_background() {
    let mut e = Engine::new();
    let r = e.add_resource("disk", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    e.spawn_job(
        "j",
        seq(vec![
            background(par(vec![use_res(r, busy(100)), use_res(r, busy(100))])),
            delay(SimDuration::from_micros(1)),
            use_res(r, busy(10)),
        ]),
    );
    let rep = e.run().unwrap();
    // The second child was queued first, yet the foreground demand went
    // ahead of it.
    assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(110));
    assert_eq!(rep.end, SimTime(210_000));
    assert_eq!(e.resource_stats(r).bg_ops, 2);
}

#[test]
fn background_drains_after_a_saturating_foreground() {
    let mut e = Engine::new();
    let r = e.add_resource("disk", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    // The foreground keeps the queue non-empty for 50 back-to-back
    // demands; the queued background work gets nothing until then.
    let mut plan = bg_burst(r, 4);
    plan.push(delay(SimDuration::from_micros(1)));
    plan.extend((0..50).map(|_| use_res(r, busy(100))));
    e.spawn_job("hog", seq(plan.clone()));
    e.spawn_job("hog2", seq(plan));
    let rep = e.run().expect("background work must not strand the run");
    assert!(rep.end >= rep.foreground_end);
    assert_eq!(rep.end.since(rep.foreground_end), SimDuration::from_micros(700));
    let s = e.resource_stats(r);
    assert_eq!((s.ops, s.bg_ops), (108, 8));
    assert_eq!(s.busy, SimDuration::from_micros(10_800));
}

#[test]
fn barrier_synchronizes_jobs() {
    let mut e = Engine::new();
    let bid = BarrierId(7);
    e.register_barrier(bid, 3);
    let r = e.add_resource("cpu", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    for i in 0..3u64 {
        e.spawn_job(
            format!("c{i}"),
            seq(vec![
                use_res(r, busy(10 * (i + 1))),
                barrier(bid),
                delay(SimDuration::from_micros(5)),
            ]),
        );
    }
    e.run().unwrap();
    // cpu serializes: arrivals at 10, 30, 60us; barrier opens at 60us.
    for j in e.jobs() {
        assert_eq!(j.end.unwrap(), SimTime(65_000));
    }
    assert_eq!(e.barrier_cycles(bid), 1);
}

#[test]
fn barrier_is_cyclic() {
    let mut e = Engine::new();
    let bid = BarrierId(0);
    e.register_barrier(bid, 2);
    for _ in 0..2 {
        e.spawn_job("c", seq(vec![barrier(bid), delay(SimDuration::from_micros(1)), barrier(bid)]));
    }
    e.run().unwrap();
    assert_eq!(e.barrier_cycles(bid), 2);
}

#[test]
fn unfilled_barrier_deadlocks_with_diagnosis() {
    let mut e = Engine::new();
    let bid = BarrierId(1);
    e.register_barrier(bid, 2);
    e.spawn_job("only", barrier(bid));
    let err = e.run().unwrap_err();
    assert!(err.detail.contains("parked on barriers"), "{}", err.detail);
}

#[test]
fn delayed_job_start() {
    let mut e = Engine::new();
    e.spawn_job_at("late", SimTime(5_000), delay(SimDuration::from_micros(1)));
    let rep = e.run().unwrap();
    assert_eq!(rep.end, SimTime(6_000));
    assert_eq!(e.jobs()[0].start, SimTime(5_000));
    assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(1));
}

#[test]
fn nested_par_seq_pipeline() {
    // Two chunks flowing through two stages overlap: total = 3 stage times.
    let mut e = Engine::new();
    let s1 = e.add_resource("s1", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    let s2 = e.add_resource("s2", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    let chunk = |_: u32| seq(vec![use_res(s1, busy(10)), use_res(s2, busy(10))]);
    e.spawn_job("xfer", par(vec![chunk(0), chunk(1)]));
    let rep = e.run().unwrap();
    assert_eq!(rep.end, SimTime(30_000));
}

#[test]
fn determinism_same_seed_same_result() {
    let build = || {
        let mut e = Engine::new();
        let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::from_micros(3))));
        for i in 0..50u64 {
            e.spawn_job(
                format!("j{i}"),
                par(vec![use_res(r, busy(i % 7 + 1)), use_res(r, busy(i % 3 + 1))]),
            );
        }
        let rep = e.run().unwrap();
        (rep.end, e.resource_stats(r).queue_wait)
    };
    assert_eq!(build(), build());
}

/// A non-FIFO model whose pick is computed by `pick` from the pending
/// payload sizes (arrival order); service takes one microsecond per byte.
struct PickBy(fn(&[u64]) -> usize);

impl ServiceModel for PickBy {
    fn service_time(&mut self, demand: &Demand, _now: SimTime) -> SimDuration {
        SimDuration::from_micros(demand.bytes().max(1))
    }
    fn is_fifo(&self) -> bool {
        false
    }
    fn select_next(&mut self, pending: &mut dyn Iterator<Item = &Demand>) -> usize {
        let sizes: Vec<u64> = pending.map(Demand::bytes).collect();
        (self.0)(&sizes)
    }
}

#[test]
fn custom_queue_discipline_reorders_service() {
    // A model that always serves the *largest* pending demand first.
    let largest_first = |sizes: &[u64]| {
        let max = sizes.iter().max().expect("never asked with an empty queue");
        sizes.iter().position(|s| s == max).unwrap_or(0)
    };
    let mut e = Engine::new();
    let r = e.add_resource("d", Box::new(PickBy(largest_first)));
    // Jobs arrive in size order 1, 5, 3 (bytes). The first grabs the
    // resource; afterwards service order must be 5 then 3.
    let j1 = e.spawn_job("a", use_res(r, Demand::NetXfer { bytes: 1 }));
    let j5 = e.spawn_job("b", use_res(r, Demand::NetXfer { bytes: 5 }));
    let j3 = e.spawn_job("c", use_res(r, Demand::NetXfer { bytes: 3 }));
    e.run().unwrap();
    let end = |j: JobId| e.jobs()[j.index()].end.unwrap();
    assert!(end(j1) < end(j5), "first-come starts first");
    assert!(end(j5) < end(j3), "largest pending served before smaller");
}

/// A non-FIFO model that logs the payload sizes of every pick it is
/// offered and serves the last arrival.
struct LoggedPicks(Arc<Mutex<Vec<Vec<u64>>>>);

impl ServiceModel for LoggedPicks {
    fn service_time(&mut self, _demand: &Demand, _now: SimTime) -> SimDuration {
        SimDuration::from_micros(10)
    }
    fn is_fifo(&self) -> bool {
        false
    }
    fn select_next(&mut self, pending: &mut dyn Iterator<Item = &Demand>) -> usize {
        let sizes: Vec<u64> = pending.map(Demand::bytes).collect();
        self.0.lock().expect("no test panics holding the log").push(sizes.clone());
        sizes.len() - 1
    }
}

#[test]
fn a_queue_discipline_picks_within_the_class_being_served() {
    let picks = Arc::new(Mutex::new(Vec::new()));
    let mut e = Engine::new();
    let r = e.add_resource("d", Box::new(LoggedPicks(picks.clone())));
    let xfer = |bytes| use_res(r, Demand::NetXfer { bytes });
    // Background sizes are 100.., foreground sizes 1..; 100 enters service
    // at once and everything else is queued behind it, classes interleaved.
    e.spawn_job(
        "j",
        seq(vec![
            background(xfer(100)),
            delay(SimDuration::from_micros(1)),
            par(vec![
                background(xfer(101)),
                xfer(1),
                background(xfer(102)),
                xfer(2),
                background(xfer(103)),
                xfer(3),
            ]),
        ]),
    );
    e.run().unwrap();
    // Offered while two or more of a class wait: the foreground three,
    // then two; only then the background three, then two.
    assert_eq!(
        *picks.lock().unwrap(),
        [vec![1, 2, 3], vec![1, 2], vec![101, 102, 103], vec![101, 102]]
    );
    assert_eq!(e.resource_stats(r).bg_ops, 4);
}

#[test]
#[should_panic(expected = "service model of `greedy` picked pending demand 2 of 2")]
fn out_of_range_pick_panics_in_every_build() {
    // A release build used to clamp a bad index and serve the wrong demand.
    let mut e = Engine::new();
    let r = e.add_resource("greedy", Box::new(PickBy(|sizes| sizes.len())));
    for bytes in 1..=3 {
        e.spawn_job("j", use_res(r, Demand::NetXfer { bytes }));
    }
    let _ = e.run();
}

#[test]
fn run_until_pauses_mid_workload_and_resumes() {
    let mut e = Engine::new();
    let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    e.spawn_job("j", seq(vec![use_res(r, busy(10)), use_res(r, busy(10))]));
    // Pause between the two service completions: exactly one op done.
    let at = e.run_until(SimTime(15_000));
    assert_eq!(at, SimTime(15_000));
    assert_eq!(e.now(), SimTime(15_000));
    assert_eq!(e.resource_stats(r).ops, 2); // second already in service
    assert!(e.jobs()[0].end.is_none(), "job must still be in flight");
    // A job spawned at the pause point interleaves with the remainder.
    e.spawn_job("late", use_res(r, busy(5)));
    let rep = e.run().unwrap();
    assert_eq!(rep.end, SimTime(25_000));
    assert_eq!(e.jobs()[0].end, Some(SimTime(20_000)));
}

#[test]
fn run_until_advances_clock_past_all_events() {
    let mut e = Engine::new();
    let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    e.spawn_job("j", use_res(r, busy(10)));
    assert_eq!(e.run_until(SimTime(1_000_000)), SimTime(1_000_000));
    assert_eq!(e.jobs()[0].end, Some(SimTime(10_000)));
    let rep = e.run().unwrap();
    assert_eq!(rep.end, SimTime(1_000_000));
}

#[test]
fn resource_slowdown_scales_subsequent_service() {
    let mut e = Engine::new();
    let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    assert_eq!(e.resource_slowdown(r), 1);
    e.spawn_job("healthy", use_res(r, busy(10)));
    e.run().unwrap();
    assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(10));
    e.set_resource_slowdown(r, 4);
    e.spawn_job("degraded", use_res(r, busy(10)));
    e.run().unwrap();
    assert_eq!(e.jobs()[1].latency(), SimDuration::from_micros(40));
    e.set_resource_slowdown(r, 1);
    e.spawn_job("recovered", use_res(r, busy(10)));
    e.run().unwrap();
    assert_eq!(e.jobs()[2].latency(), SimDuration::from_micros(10));
}

#[test]
fn task_slots_are_reused() {
    let mut e = Engine::new();
    let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    for _ in 0..1000 {
        e.spawn_job("j", use_res(r, busy(1)));
    }
    e.run().unwrap();
    assert_eq!(e.stats().task_slot_allocs, 1000);
    // Every slot is back on the free list once the run drains: a fresh
    // batch of the same size reuses them instead of growing the table.
    for _ in 0..1000 {
        e.spawn_job("j2", use_res(r, busy(1)));
    }
    e.run().unwrap();
    assert_eq!(e.stats().tasks_spawned, 2000);
    assert_eq!(e.stats().task_slot_allocs, 1000);
}
