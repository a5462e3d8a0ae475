//! Pass 7 — `perf-smoke`: the engine-performance regression gate.
//!
//! Wall-clock benchmarks cannot gate CI (they measure the host, not the
//! code; `benchmark/` reports them), so this pass gates what *is*
//! deterministic: the engine's work counters ([`sim_core::EngineStats`]
//! — events dispatched, event-queue pushes, queue-scan iterations,
//! task-slot allocations, tracer calls). It re-runs two small scenarios
//! and asserts that the fresh work counters equal the in-code baseline
//! tables below. The counters are deterministic, so any difference is a
//! change in what the engine does: a queue scan creeping back onto the
//! FIFO resources of the smoke scenario shows up as a non-zero
//! `queue_scan_iters` long before anyone profiles.
//!
//! An intentional engine change updates the tables in the same PR: the
//! failure message prints the fresh counters as a paste-able table.

use raidx_core::Arch;
use sim_core::explore::Explorer;
use sim_core::trace::NoopTracer;
use workloads::parallel_io::{run_parallel_io, IoPattern, ParallelIoConfig};

use crate::report::PassReport;

/// Named deterministic work counters, in stable order.
type Work = Vec<(&'static str, u64)>;

/// Baseline of [`smoke_work`].
const SMOKE_BASELINE: [(&str, u64); 7] = [
    ("events", 906),
    ("heap_pushes", 906),
    ("heap_peak", 16),
    ("tasks_spawned", 163),
    ("task_slot_allocs", 56),
    ("queue_scan_iters", 0),
    ("tracer_records", 2540),
];
/// Baseline of [`model_budget_work`].
const MODEL_BASELINE: [(&str, u64); 3] = [("schedules", 4), ("steps", 32), ("pruned", 4)];

/// Engine work counters of the gated smoke scenario — a small RAID-x
/// parallel-write workload on a 4×1 cluster with a tracer installed (so
/// `tracer_records` is exercised too).
fn smoke_work() -> Work {
    let (mut engine, mut sys) = cdd::testkit::shape(4, 1, 8 << 20, Arch::RaidX);
    engine.set_tracer(Box::new(NoopTracer));
    let cfg = ParallelIoConfig {
        clients: 4,
        pattern: IoPattern::LargeWrite,
        large_bytes: 128 << 10,
        repeats: 2,
        ..Default::default()
    };
    run_parallel_io(&mut engine, &mut sys, &cfg).expect("smoke workload failed");
    engine.run().expect("drain failed");
    engine.stats().pairs().to_vec()
}

/// Deterministic work counters of the gated model-check scenario: the
/// exploration of the contended CDD lock scenario.
fn model_budget_work() -> Work {
    let m = cdd::CddModel::new(cdd::scenarios::scenario_contended(cdd::Defect::None));
    let r = Explorer::default().explore(&m);
    vec![("schedules", r.schedules), ("steps", r.steps), ("pruned", r.pruned)]
}

/// Compare fresh work counters against a baseline. Returns one message
/// per counter that is missing from the fresh run or differs from it.
fn compare_work(current: &[(&str, u64)], baseline: &[(&str, u64)]) -> Vec<String> {
    baseline
        .iter()
        .filter_map(|(key, base)| match current.iter().find(|(k, _)| k == key) {
            None => Some(format!("counter `{key}` missing from the fresh run")),
            Some((_, cur)) if cur != base => Some(format!("`{key}` is {cur}, baseline {base}")),
            Some(_) => None,
        })
        .collect()
}

fn gate_scenario(
    rep: &mut PassReport,
    name: &str,
    current: &[(&str, u64)],
    baseline: &[(&str, u64)],
) {
    let check = format!("{name} vs baseline");
    let problems = compare_work(current, baseline);
    if problems.is_empty() {
        let summary: Vec<String> = current.iter().map(|(k, v)| format!("{k}={v}")).collect();
        rep.ok(
            check,
            format!("{} counters equal the baseline: {}", baseline.len(), summary.join(" ")),
        );
    } else {
        rep.fail(check, format!("{}; fresh table: {current:?}", problems.join("; ")));
    }
}

/// Run the perf-smoke pass against the in-code baseline tables.
pub fn run_pass() -> PassReport {
    let mut rep = PassReport::new("perf-smoke");
    gate_scenario(&mut rep, "perf_smoke", &smoke_work(), &SMOKE_BASELINE);
    gate_scenario(&mut rep, "model_check_budget", &model_budget_work(), &MODEL_BASELINE);
    rep
}
