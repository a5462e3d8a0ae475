//! Properties of the resource queues over random plan forests: a FIFO
//! resource serves each traffic class in the order it arrived and never
//! starts a background demand while a foreground one waits; the order of
//! service changes no resource's work; and a tracer never changes a result.

use std::collections::VecDeque;

use sim_core::check::{run_cases, Gen};
use sim_core::plan::{background, barrier, delay, fan, par, seq, use_res};
use sim_core::trace::{EventLog, TraceEvent};
use sim_core::{
    BarrierId, Demand, Engine, FixedRate, Plan, ResourceId, ServiceModel, SimDuration, SimTime,
};

/// A random plan tree over `rids`. Every `Use` carries a payload size of
/// its own (`serial`), so a trace names each demand unambiguously even
/// after its task slot has been reused.
fn random_tree(g: &mut Gen, rids: &[ResourceId], serial: &mut u64, depth: u32) -> Plan {
    let children = |g: &mut Gen, serial: &mut u64| -> Vec<Plan> {
        (0..g.usize_in(0..4)).map(|_| random_tree(g, rids, serial, depth + 1)).collect()
    };
    let shape =
        if depth >= 3 { g.weighted(&[6, 1, 1]) } else { g.weighted(&[6, 1, 1, 3, 3, 2, 3]) };
    match shape {
        0 => {
            *serial += 1;
            use_res(rids[g.usize_in(0..rids.len())], Demand::NetXfer { bytes: *serial })
        }
        1 => delay(SimDuration::from_micros(g.u64_in(0..50))),
        2 => Plan::Noop,
        3 => seq(children(g, serial)),
        4 => par(children(g, serial)),
        5 => background(random_tree(g, rids, serial, depth + 1)),
        _ => {
            let head = children(g, serial);
            let arms = (0..g.usize_in(0..3)).map(|_| children(g, serial).into()).collect();
            fan(head, arms, children(g, serial))
        }
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
    /// Per resource: busy ns, ops and bytes the plans demand — each
    /// `Use` leaf priced by the resource's (stateless) model.
    demanded: Vec<(u64, u64, u64)>,
    /// Demands served for detached tasks, over all resources.
    bg_ops: u64,
}

/// Add every `Use` leaf of `plan` to `demanded`, priced by `models`.
fn price(plan: &Plan, models: &mut [FixedRate], demanded: &mut [(u64, u64, u64)]) {
    match plan {
        Plan::Use { res, demand } => {
            let d = &mut demanded[res.index()];
            d.0 += models[res.index()].service_time(demand, SimTime::ZERO).as_nanos();
            d.1 += 1;
            d.2 += demand.bytes();
        }
        Plan::Seq(v) | Plan::Par(v) => v.iter().for_each(|p| price(p, models, demanded)),
        Plan::Fan(f) => f.chains().for_each(|p| price(p, models, demanded)),
        Plan::Background(p) => price(p, models, demanded),
        Plan::Noop | Plan::Delay(_) | Plan::Barrier(_) => {}
    }
}

/// Build the forest `tape` describes — a few jobs, each a chain of random
/// trees separated by the same number of barrier rounds — and run it.
fn run_forest(tape: &[u64], log: Option<&EventLog>) -> Outcome {
    let mut g = Gen::from_tape(tape);
    let mut e = Engine::new();
    if let Some(log) = log {
        e.set_tracer(log.clone());
    }
    let mut models: Vec<FixedRate> = (0..g.usize_in(1..4))
        .map(|_| {
            if g.bool() {
                FixedRate::rate(g.u64_in(1 << 10..1 << 20))
            } else {
                FixedRate::per_op(SimDuration::from_micros(g.u64_in(0..20)))
            }
        })
        .collect();
    let rids: Vec<ResourceId> = models
        .iter()
        .enumerate()
        .map(|(i, model)| e.add_resource(format!("r{i}"), Box::new(model.clone())))
        .collect();
    let mut demanded = vec![(0, 0, 0); rids.len()];
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
        let plan = seq(chain);
        price(&plan, &mut models, &mut demanded);
        e.spawn_job(format!("j{j}"), plan);
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
        demanded,
        bg_ops: e.resources().map(|(_, _, s)| s.bg_ops).sum(),
    }
}

#[test]
fn classes_are_fifo_foreground_goes_first_and_work_is_conserved() {
    // Over all cases: background demands served, and foreground demands
    // started ahead of a background one that had arrived earlier.
    let (mut bg_served, mut overtakes) = (0, 0);
    run_cases("fifo_service_order", 150, |g| {
        // Pre-draw a tape so both runs build the identical forest.
        let tape: Vec<u64> = (0..512).map(|_| g.u64()).collect();
        let log = EventLog::new();
        let traced = run_forest(&tape, Some(&log));
        assert_eq!(traced, run_forest(&tape, None), "the tracer changed a result");

        // Whatever order the classes were served in, every resource did
        // exactly the work the plans demand of it.
        let done: Vec<_> = traced.resources.iter().map(|r| (r.0, r.1, r.2)).collect();
        assert_eq!(done, traced.demanded, "service order changed a resource's work");

        // Per resource and class: (arrival number, task, bytes) of the
        // demands not yet in service.
        let mut pending = vec![[VecDeque::new(), VecDeque::new()]; traced.resources.len()];
        let (mut arrivals, mut bg_starts) = (0u64, 0u64);
        for ev in log.events() {
            match ev.event {
                TraceEvent::Enqueued { res, task, bytes, detached, .. } => {
                    arrivals += 1;
                    pending[res as usize][usize::from(detached)].push_back((arrivals, task, bytes));
                }
                TraceEvent::ServiceStarted { res, task, bytes, detached, .. } => {
                    let [fg, bg] = &mut pending[res as usize];
                    let (own, other) = if detached { (bg, fg) } else { (fg, bg) };
                    let (arrived, head_task, head_bytes) =
                        own.pop_front().expect("service started for no arrival");
                    assert_eq!(
                        (head_task, head_bytes),
                        (task, bytes),
                        "a resource served a class out of arrival order"
                    );
                    if detached {
                        assert!(other.is_empty(), "background started while foreground waits");
                        bg_starts += 1;
                    } else if other.front().is_some_and(|&(first, ..)| first < arrived) {
                        overtakes += 1;
                    }
                }
                _ => {}
            }
        }
        assert_eq!(traced.bg_ops, bg_starts, "bg_ops disagrees with the trace");
        bg_served += bg_starts;
    });
    assert!(bg_served > 0 && overtakes > 0, "no case exercised the background class");
}
