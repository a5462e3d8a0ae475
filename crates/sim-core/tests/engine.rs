//! The engine's execution semantics through its public API: sequencing,
//! forking, queueing, background work, barriers, partial runs, slowdown,
//! slot reuse and custom queue disciplines.

use sim_core::plan::{background, barrier, delay, par, seq, use_res};
use sim_core::{BarrierId, Demand, Engine, FixedRate, JobId, ServiceModel, SimDuration, SimTime};

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
