//! Property test: resource utilization stays within [0, 1] under random
//! demand tapes, and the tracer never perturbs simulation results.

use sim_core::check::run_cases;
use sim_core::plan::{par, seq, use_res};
use sim_core::trace::EventLog;
use sim_core::{Demand, Engine, FixedRate, Plan, SimDuration};

fn random_demand(g: &mut sim_core::check::Gen) -> Demand {
    match g.weighted(&[2, 2, 3, 1, 1, 1]) {
        0 => Demand::Busy(SimDuration::from_micros(g.u64_in(1..500))),
        1 => Demand::DiskRead { offset: g.u64_in(0..1 << 20), bytes: g.u64_in(1..256 << 10) },
        2 => Demand::DiskWrite { offset: g.u64_in(0..1 << 20), bytes: g.u64_in(1..256 << 10) },
        3 => Demand::NetXfer { bytes: g.u64_in(1..1 << 20) },
        4 => Demand::BusXfer { bytes: g.u64_in(1..1 << 20) },
        _ => Demand::CpuMsg { bytes: g.u64_in(1..64 << 10) },
    }
}

#[test]
fn utilization_is_a_fraction_under_random_demand_tapes() {
    run_cases("utilization_is_a_fraction", 60, |g| {
        let mut e = Engine::new();
        let n_res = g.usize_in(1..4);
        let rids: Vec<_> = (0..n_res)
            .map(|i| {
                let model: Box<dyn sim_core::ServiceModel> = if g.bool() {
                    Box::new(FixedRate::rate(g.u64_in(1 << 20..64 << 20)))
                } else {
                    Box::new(FixedRate::per_op(SimDuration::from_micros(g.u64_in(0..200))))
                };
                e.add_resource(format!("r{i}"), model)
            })
            .collect();
        let n_jobs = g.usize_in(1..6);
        for j in 0..n_jobs {
            let stages: Vec<Plan> = (0..g.usize_in(1..5))
                .map(|_| {
                    let r = rids[g.usize_in(0..rids.len())];
                    use_res(r, random_demand(g))
                })
                .collect();
            let plan = if g.bool() { seq(stages) } else { par(stages) };
            e.spawn_job(format!("j{j}"), plan);
        }
        let report = e.run().expect("no barriers, cannot deadlock");
        let span = report.end.since(sim_core::SimTime::ZERO);
        for (_, name, stats) in e.resources() {
            let u = stats.utilization(span);
            assert!(
                (0.0..=1.0 + 1e-12).contains(&u),
                "{name}: utilization {u} outside [0,1] over {span}"
            );
        }
        // Zero-span query must stay finite regardless of accumulated busy.
        for (_, _, stats) in e.resources() {
            assert_eq!(stats.utilization(SimDuration::ZERO), 0.0);
        }
    });
}

#[test]
fn tracer_does_not_perturb_results() {
    run_cases("tracer_transparency", 25, |g| {
        let build = |traced: bool, tape: &[u64]| {
            let mut gg = sim_core::check::Gen::from_tape(tape);
            let mut e = Engine::new();
            let r = e.add_resource("d", Box::new(FixedRate::rate(8 << 20)));
            let log = EventLog::new();
            if traced {
                e.set_tracer(log.clone());
            }
            for j in 0..gg.usize_in(1..5) {
                e.spawn_job(format!("j{j}"), use_res(r, random_demand(&mut gg)));
            }
            let rep = e.run().expect("run");
            (rep.end, rep.foreground_end, e.resource_stats(r).clone())
        };
        // Pre-draw a tape so both runs see identical workloads.
        let tape: Vec<u64> = (0..64).map(|_| g.u64()).collect();
        let plain = build(false, &tape);
        let traced = build(true, &tape);
        assert_eq!(plain.0, traced.0, "end time changed by tracer");
        assert_eq!(plain.1, traced.1, "foreground end changed by tracer");
        assert_eq!(plain.2.busy, traced.2.busy, "busy time changed by tracer");
        assert_eq!(plain.2.max_queue, traced.2.max_queue, "max queue changed by tracer");
    });
}
