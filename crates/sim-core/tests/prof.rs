//! Tests for the deterministic engine stats plane: what the counters
//! count, and that they saturate instead of wrapping.

use sim_core::plan::{par, seq, use_res};
use sim_core::{Demand, Engine, EngineStats, FixedRate, ServiceModel, SimDuration, SimTime};

fn busy(us: u64) -> Demand {
    Demand::Busy(SimDuration::from_micros(us))
}

/// A small contended workload: several jobs racing on one disk (deep
/// queues) plus a second resource for overlap.
fn workload(e: &mut Engine) {
    let d = e.add_resource("disk", Box::new(FixedRate::per_op(SimDuration::from_micros(2))));
    let c = e.add_resource("cpu", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    for i in 0..20u64 {
        e.spawn_job(
            format!("j{i}"),
            seq(vec![
                use_res(c, busy(i % 3 + 1)),
                par(vec![use_res(d, busy(i % 5 + 1)), use_res(d, busy(3))]),
            ]),
        );
    }
}

#[test]
fn stats_count_engine_work() {
    let mut e = Engine::new();
    workload(&mut e);
    e.run().unwrap();
    let s = *e.stats();
    assert!(s.events > 0, "{s:?}");
    assert!(s.heap_pushes >= s.events, "every pop was once pushed: {s:?}");
    assert!(s.heap_peak >= 2, "{s:?}");
    // 20 jobs, each with a 2-way Par: >= 60 tasks.
    assert!(s.tasks_spawned >= 60, "{s:?}");
    assert!(s.task_slot_allocs <= s.tasks_spawned, "{s:?}");
    assert_eq!(s.queue_scan_iters, 0, "a FIFO resource pops its head unscanned: {s:?}");
    assert_eq!(s.tracer_records, 0, "no tracer installed");

    // A second batch reuses freed slots: spawns grow, allocations don't.
    let allocs_before = s.task_slot_allocs;
    workload(&mut e);
    e.run().unwrap();
    let s2 = *e.stats();
    assert!(s2.tasks_spawned >= 2 * s.tasks_spawned - 1, "{s2:?}");
    assert_eq!(s2.task_slot_allocs, allocs_before, "free-list reuse must not allocate: {s2:?}");
}

/// Serves the newest arrival first, so every pick inspects the queue.
struct Lifo;

impl ServiceModel for Lifo {
    fn service_time(&mut self, _demand: &Demand, _now: SimTime) -> SimDuration {
        SimDuration::from_micros(1)
    }
    fn is_fifo(&self) -> bool {
        false
    }
    fn select_next(&mut self, pending: &mut dyn Iterator<Item = &Demand>) -> usize {
        pending.count() - 1
    }
}

#[test]
fn queue_scan_iters_counts_what_a_non_fifo_pick_inspects() {
    let mut e = Engine::new();
    let d = e.add_resource("disk", Box::new(Lifo));
    // Six demands arrive at once: one enters service, five wait. The
    // model is shown 5, 4, 3 and 2 pending demands; the last waiter is
    // served without asking.
    e.spawn_job("batch", par((0..6).map(|_| use_res(d, busy(1))).collect()));
    e.run().unwrap();
    assert_eq!(e.stats().queue_scan_iters, 5 + 4 + 3 + 2);
    assert_eq!(e.resource_stats(d).ops, 6);
}

#[test]
fn stats_saturate_instead_of_wrapping() {
    let mut s = EngineStats { events: u64::MAX - 1, ..EngineStats::default() };
    s.on_event();
    s.on_event();
    s.on_event();
    assert_eq!(s.events, u64::MAX);

    let mut s = EngineStats { queue_scan_iters: u64::MAX - 3, ..EngineStats::default() };
    s.on_queue_scan(100);
    assert_eq!(s.queue_scan_iters, u64::MAX);

    let mut s = EngineStats { tracer_records: u64::MAX, ..EngineStats::default() };
    s.on_tracer_records(7);
    assert_eq!(s.tracer_records, u64::MAX);

    let mut s =
        EngineStats { tasks_spawned: u64::MAX, task_slot_allocs: u64::MAX, ..Default::default() };
    s.on_task_spawn(true);
    assert_eq!((s.tasks_spawned, s.task_slot_allocs), (u64::MAX, u64::MAX));
}
