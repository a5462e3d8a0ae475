//! Property: on FIFO resources the engine serves demands in the order
//! they arrived, whatever plan shapes produced them, and a tracer never
//! changes a result.

use sim_core::check::{run_cases, Gen};
use sim_core::plan::{background, barrier, delay, par, seq, use_res};
use sim_core::trace::{EventLog, TraceEvent};
use sim_core::{BarrierId, Demand, Engine, FixedRate, Plan, ResourceId, SimDuration};

/// A random plan tree over `rids`. Every `Use` carries a payload size of
/// its own (`serial`), so a trace names each demand unambiguously even
/// after its task slot has been reused.
fn random_tree(g: &mut Gen, rids: &[ResourceId], serial: &mut u64, depth: u32) -> Plan {
    let children = |g: &mut Gen, serial: &mut u64| -> Vec<Plan> {
        (0..g.usize_in(0..4)).map(|_| random_tree(g, rids, serial, depth + 1)).collect()
    };
    let shape = if depth >= 3 { g.weighted(&[6, 1, 1]) } else { g.weighted(&[6, 1, 1, 3, 3, 2]) };
    match shape {
        0 => {
            *serial += 1;
            use_res(rids[g.usize_in(0..rids.len())], Demand::NetXfer { bytes: *serial })
        }
        1 => delay(SimDuration::from_micros(g.u64_in(0..50))),
        2 => Plan::Noop,
        3 => seq(children(g, serial)),
        4 => par(children(g, serial)),
        _ => background(random_tree(g, rids, serial, depth + 1)),
    }
}

/// What a run produced, for the tracer-on / tracer-off comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    end: u64,
    foreground_end: u64,
    job_ends: Vec<Option<u64>>,
    /// Per resource: busy ns, ops, bytes, queue-wait ns, max queue.
    resources: Vec<(u64, u64, u64, u64, usize)>,
}

/// Build the forest `tape` describes — a few jobs, each a chain of random
/// trees separated by the same number of barrier rounds — and run it.
fn run_forest(tape: &[u64], log: Option<&EventLog>) -> Outcome {
    let mut g = Gen::from_tape(tape);
    let mut e = Engine::new();
    if let Some(log) = log {
        e.set_tracer(Box::new(log.clone()));
    }
    let rids: Vec<ResourceId> = (0..g.usize_in(1..4))
        .map(|i| {
            let model = if g.bool() {
                FixedRate::rate(g.u64_in(1 << 10..1 << 20))
            } else {
                FixedRate::per_op(SimDuration::from_micros(g.u64_in(0..20)))
            };
            e.add_resource(format!("r{i}"), Box::new(model))
        })
        .collect();
    let jobs = g.usize_in(1..5);
    let rounds = g.usize_in(0..3);
    let bid = BarrierId(0);
    e.register_barrier(bid, jobs);
    let mut serial = 0;
    for j in 0..jobs {
        let mut chain = vec![random_tree(&mut g, &rids, &mut serial, 0)];
        for _ in 0..rounds {
            chain.push(barrier(bid));
            chain.push(random_tree(&mut g, &rids, &mut serial, 0));
        }
        e.spawn_job(format!("j{j}"), seq(chain));
    }
    let rep = e.run().expect("every job reaches every barrier round");
    Outcome {
        end: rep.end.as_nanos(),
        foreground_end: rep.foreground_end.as_nanos(),
        job_ends: e.jobs().iter().map(|j| j.end.map(|t| t.as_nanos())).collect(),
        resources: e
            .resources()
            .map(|(_, _, s)| {
                (s.busy.as_nanos(), s.ops, s.bytes, s.queue_wait.as_nanos(), s.max_queue)
            })
            .collect(),
    }
}

#[test]
fn fifo_resources_serve_in_arrival_order_and_tracing_is_transparent() {
    run_cases("fifo_service_order", 150, |g| {
        // Pre-draw a tape so both runs build the identical forest.
        let tape: Vec<u64> = (0..512).map(|_| g.u64()).collect();
        let log = EventLog::new();
        let traced = run_forest(&tape, Some(&log));
        assert_eq!(traced, run_forest(&tape, None), "the tracer changed a result");

        let n = traced.resources.len();
        let (mut arrived, mut served) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for ev in log.events() {
            match ev.event {
                TraceEvent::Enqueued { res, task, bytes, .. } => {
                    arrived[res as usize].push((task, bytes));
                }
                TraceEvent::ServiceStarted { res, task, bytes, .. } => {
                    served[res as usize].push((task, bytes));
                }
                _ => {}
            }
        }
        assert_eq!(served, arrived, "a resource served out of arrival order");
    });
}
