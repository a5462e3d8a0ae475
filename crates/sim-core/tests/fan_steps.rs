//! `Plan::Fan` is the `Par` of its arms' chains with shared storage: a
//! forest runs the same whichever of the two its fans are built as.

use std::sync::Arc;

use sim_core::plan::{background, barrier, delay, fan, par, seq, use_res};
use sim_core::trace::{EventLog, TimedEvent};
use sim_core::{
    BarrierId, Demand, Engine, EngineStats, FixedRate, Plan, ResourceId, SimDuration, SimTime,
};

/// Builds `par(arms.map(|a| seq(head ++ a ++ tail)))`, one way or another.
type Build = fn(Vec<Plan>, Vec<Arc<[Plan]>>, Vec<Plan>) -> Plan;

/// The fan unfolded into owned chains, as a request would build it.
fn unfolded(head: Vec<Plan>, arms: Vec<Arc<[Plan]>>, tail: Vec<Plan>) -> Plan {
    par(arms
        .iter()
        .map(|arm| seq(head.iter().chain(arm.iter()).chain(&tail).cloned().collect()))
        .collect())
}

/// Everything a run reports.
#[derive(Debug, PartialEq)]
struct Outcome {
    trace: Vec<TimedEvent>,
    end: SimTime,
    foreground_end: SimTime,
    job_ends: Vec<Option<SimTime>>,
    /// `ResourceStats` of every resource, rendered (it is not `PartialEq`).
    resources: Vec<String>,
    /// Most demands that waited at the port at once.
    port_max_queue: usize,
    stats: EngineStats,
}

/// Three jobs over a CPU, a port and a disk, every fan in them made by
/// `build`: nested in a `Seq`, inside `Par`, under `Background`, with a
/// barrier in a head, an empty arm, an empty head and tail, non-leaf
/// steps (`Seq`, `Par`, `Background`) in an arm and `Par` and
/// `Background` in a tail beside leaf steps, one arm shared by two fans,
/// and one fan value (`round`) cloned into six places so that several
/// live tasks are inside it at once. Returns the outcome, `round` and the
/// shared arm.
fn run_forest(build: Build) -> (Outcome, Plan, Arc<[Plan]>) {
    let log = EventLog::new();
    let mut e = Engine::new();
    e.set_tracer(log.clone());
    let cpu = e.add_resource("cpu", Box::new(FixedRate::per_op(SimDuration::from_micros(3))));
    let port = e.add_resource("port", Box::new(FixedRate::rate(1_000_000)));
    let disk = e.add_resource("disk", Box::new(FixedRate::rate(4_000_000)));
    let bid = BarrierId(0);
    // Two writers, each arriving once per arm of a two-armed fan.
    e.register_barrier(bid, 4);
    let msg = |res: ResourceId, bytes| use_res(res, Demand::NetXfer { bytes });

    let shared_arm: Arc<[Plan]> = vec![msg(port, 64), delay(SimDuration::from_micros(7))].into();
    let round = build(
        vec![msg(cpu, 32), msg(port, 96)],
        vec![
            shared_arm.clone(),
            vec![
                Plan::Noop,
                msg(disk, 256),
                par(vec![msg(cpu, 4), msg(disk, 64)]),
                background(msg(port, 24)),
                delay(SimDuration::from_micros(2)),
            ]
            .into(),
            Vec::new().into(),
            vec![seq(vec![msg(cpu, 8), msg(disk, 512)])].into(),
        ],
        vec![
            msg(port, 48),
            par(vec![msg(disk, 40), seq(vec![msg(cpu, 6), msg(port, 20)])]),
            background(seq(vec![msg(cpu, 2), msg(disk, 80)])),
            msg(cpu, 16),
        ],
    );
    let flush = build(
        vec![msg(port, 4096)],
        vec![shared_arm.clone(), vec![msg(disk, 4096)].into()],
        vec![msg(port, 32)],
    );
    for (i, write) in [1024, 2048].into_iter().enumerate() {
        let sync = build(
            vec![barrier(bid)],
            vec![vec![msg(port, write)].into(), vec![msg(disk, write)].into()],
            Vec::new(),
        );
        e.spawn_job(
            format!("writer{i}"),
            seq(vec![
                msg(cpu, 1),
                par(vec![round.clone(), round.clone(), msg(disk, write)]),
                sync,
                background(flush.clone()),
                round.clone(),
                msg(disk, 128),
            ]),
        );
    }
    let late = build(Vec::new(), vec![vec![msg(port, 10), msg(cpu, 5)].into()], Vec::new());
    e.spawn_job_at("late", SimTime(40_000), late);

    let rep = e.run().expect("both writers reach the barrier");
    let outcome = Outcome {
        trace: log.events(),
        end: rep.end,
        foreground_end: rep.foreground_end,
        job_ends: e.jobs().iter().map(|j| j.end).collect(),
        resources: e.resources().map(|(_, _, s)| format!("{s:?}")).collect(),
        port_max_queue: e.resource_stats(port).max_queue,
        stats: *e.stats(),
    };
    (outcome, round, shared_arm)
}

#[test]
fn a_fan_runs_exactly_as_the_par_of_its_chains() {
    let (owned, _, _) = run_forest(unfolded);
    let (handles, round, shared_arm) = run_forest(fan);
    assert_eq!(owned, handles);

    // The forest did real work in both classes, and overlapped the fan
    // that six places hold: its port carried several of them at once.
    assert!(owned.trace.len() > 100, "only {} events", owned.trace.len());
    assert!(owned.end > owned.foreground_end, "no background work ran");
    assert!(owned.port_max_queue >= 4, "{} waited at the port", owned.port_max_queue);

    // Every task that was inside a fan has let go of it; the buffers were
    // never taken apart, and the shared arm is held by `round` alone.
    let Plan::Fan(steps) = round else { panic!("`fan` built {round:?}") };
    assert_eq!(Arc::strong_count(&steps), 1);
    assert_eq!((steps.head.len(), steps.arms.len(), steps.tail.len()), (2, 4, 4));
    assert!(Arc::ptr_eq(&steps.arms[0], &shared_arm));
    assert_eq!(Arc::strong_count(&shared_arm), 2, "held by `round` and this handle");
}
