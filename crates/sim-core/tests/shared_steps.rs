//! `Plan::Shared` is `Plan::Seq` with shared storage: a forest runs the
//! same whichever of the two its chains are built from.

use std::sync::Arc;

use sim_core::plan::{background, barrier, delay, par, seq, shared, use_res};
use sim_core::trace::{EventLog, TimedEvent};
use sim_core::{
    BarrierId, Demand, Engine, EngineStats, FixedRate, Plan, ResourceId, SimDuration, SimTime,
};

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

/// Three jobs over a CPU, a port and a disk, every chain in them built by
/// `chain`: nested in a `Seq`, as `Par` children, under `Background`, with
/// a non-leaf step inside, and one chain value (`round`) cloned into six
/// places so that several live tasks are inside it at once. Returns the
/// outcome and that chain.
fn run_forest(chain: fn(Vec<Plan>) -> Plan) -> (Outcome, Plan) {
    let log = EventLog::new();
    let mut e = Engine::new();
    e.set_tracer(Box::new(log.clone()));
    let cpu = e.add_resource("cpu", Box::new(FixedRate::per_op(SimDuration::from_micros(3))));
    let port = e.add_resource("port", Box::new(FixedRate::rate(1_000_000)));
    let disk = e.add_resource("disk", Box::new(FixedRate::rate(4_000_000)));
    let bid = BarrierId(0);
    e.register_barrier(bid, 2);
    let msg = |res: ResourceId, bytes| use_res(res, Demand::NetXfer { bytes });

    let round = chain(vec![
        msg(cpu, 32),
        msg(port, 96),
        delay(SimDuration::from_micros(7)),
        Plan::Noop,
        msg(port, 64),
        msg(cpu, 16),
    ]);
    let flush = chain(vec![
        msg(port, 4096),
        par(vec![msg(disk, 4096), chain(vec![msg(cpu, 8), msg(disk, 512)])]),
        msg(port, 32),
    ]);
    for (i, write) in [1024, 2048].into_iter().enumerate() {
        e.spawn_job(
            format!("writer{i}"),
            seq(vec![
                msg(cpu, 1),
                par(vec![round.clone(), round.clone(), chain(vec![msg(disk, write)])]),
                chain(vec![barrier(bid), msg(port, write)]),
                background(flush.clone()),
                round.clone(),
                msg(disk, 128),
            ]),
        );
    }
    e.spawn_job_at("late", SimTime(40_000), chain(vec![msg(port, 10), chain(vec![]), msg(cpu, 5)]));

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
    (outcome, round)
}

#[test]
fn shared_chains_run_exactly_as_seq_chains() {
    let (owned, _) = run_forest(seq);
    let (handles, round) = run_forest(shared);
    assert_eq!(owned, handles);

    // The forest did real work in both classes, and overlapped the chain
    // that six places hold: its port carried several of them at once.
    assert!(owned.trace.len() > 100, "only {} events", owned.trace.len());
    assert!(owned.end > owned.foreground_end, "no background work ran");
    assert!(owned.port_max_queue >= 4, "{} waited at the port", owned.port_max_queue);

    // Every task that was inside the shared chain has let go of it; the
    // buffer itself was never taken apart.
    let Plan::Shared(steps) = round else { panic!("`shared` built {round:?}") };
    assert_eq!(Arc::strong_count(&steps), 1);
    assert_eq!(steps.len(), 6);
}
