//! Pass 8 — `perf-smoke`: the engine-performance regression gate.
//!
//! Wall-clock benchmarks cannot gate CI (they measure the host, not the
//! code; `benchmark/` reports them), so this pass gates what *is*
//! deterministic: the engine's work counters ([`sim_core::EngineStats`]
//! — events dispatched, event-queue pushes, queue-scan iterations,
//! task-slot allocations, tracer calls). It re-runs two small scenarios
//! and asserts
//!
//! 1. the fresh work counters match the in-code baseline tables below
//!    within a tolerance band — catching accidental algorithmic
//!    regressions (a queue scan creeping back onto the FIFO resources
//!    of the smoke scenario shows up as a non-zero `queue_scan_iters`
//!    long before anyone profiles);
//! 2. a canary: deliberately inflated baseline counters must be flagged,
//!    proving the comparator is alive.
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

/// Counters may drift by this factor before the gate trips. Wide enough
/// to absorb legitimate engine evolution in the same PR that updates the
/// baseline, narrow enough to catch a complexity-class regression.
const TOLERANCE: f64 = 1.5;

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
/// per violation (missing counter, zero/non-zero flip, or a ratio
/// outside `[1/tol, tol]`).
fn compare_work(current: &[(&str, u64)], baseline: &[(&str, u64)], tol: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for (key, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(k, _)| k == key) else {
            problems.push(format!("counter `{key}` missing from the fresh run"));
            continue;
        };
        match (*base, *cur) {
            (0, 0) => {}
            (0, c) => problems.push(format!("`{key}` was 0 at baseline, now {c}")),
            (b, 0) => problems.push(format!("`{key}` was {b} at baseline, now 0")),
            (b, c) => {
                let ratio = c as f64 / b as f64;
                if !(1.0 / tol..=tol).contains(&ratio) {
                    problems.push(format!(
                        "`{key}` drifted {ratio:.2}x (baseline {b}, now {c}, tolerance {tol}x)"
                    ));
                }
            }
        }
    }
    problems
}

fn gate_scenario(
    rep: &mut PassReport,
    name: &str,
    current: &[(&str, u64)],
    baseline: &[(&str, u64)],
) {
    let check = format!("{name} vs baseline");
    let problems = compare_work(current, baseline, TOLERANCE);
    if problems.is_empty() {
        let summary: Vec<String> = current.iter().map(|(k, v)| format!("{k}={v}")).collect();
        rep.ok(
            check,
            format!("{} counters within {TOLERANCE}x: {}", baseline.len(), summary.join(" ")),
        );
    } else {
        rep.fail(check, format!("{}; fresh table: {current:?}", problems.join("; ")));
    }
}

/// Run the perf-smoke pass against the in-code baseline tables.
pub fn run_pass() -> PassReport {
    let mut rep = PassReport::new("perf-smoke");
    let smoke = smoke_work();
    gate_scenario(&mut rep, "perf_smoke", &smoke, &SMOKE_BASELINE);
    gate_scenario(&mut rep, "model_check_budget", &model_budget_work(), &MODEL_BASELINE);

    // Canary: an inflated baseline must trip the comparator.
    let inflated: Work = smoke.iter().map(|&(k, v)| (k, v.saturating_mul(3).max(1))).collect();
    let caught = !compare_work(&smoke, &inflated, TOLERANCE).is_empty();
    rep.push(
        "canary: 3x counter drift is caught",
        caught,
        if caught {
            "comparator flagged the planted drift"
        } else {
            "comparator missed a 3x drift"
        },
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_counters_equal_the_baseline_tables() {
        assert_eq!(smoke_work(), SMOKE_BASELINE, "same-seed smoke runs must be identical");
        assert_eq!(model_budget_work(), MODEL_BASELINE);
        let rep = run_pass();
        assert!(rep.all_ok(), "{}", rep.render());
    }

    #[test]
    fn comparator_flags_drift_and_passes_identity() {
        let base = [("events", 1000u64), ("scans", 0)];
        assert!(compare_work(&base, &base, TOLERANCE).is_empty());
        let drifted = [("events", 4000u64), ("scans", 5)];
        let problems = compare_work(&drifted, &base, TOLERANCE);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert_eq!(compare_work(&base[..1], &base, TOLERANCE).len(), 1, "missing counter");
    }

    /// A drift just past the band on any one complexity counter fails the
    /// gate against the real baseline, in either direction, and the
    /// failure carries the fresh table.
    #[test]
    fn gate_fails_on_a_real_drift_past_tolerance() {
        for key in ["events", "tasks_spawned", "task_slot_allocs"] {
            for scale in [1.6, 1.0 / 1.6] {
                let drifted: Work = SMOKE_BASELINE
                    .iter()
                    .map(|&(k, v)| (k, if k == key { (v as f64 * scale) as u64 } else { v }))
                    .collect();
                let mut rep = PassReport::new("perf-smoke");
                gate_scenario(&mut rep, "perf_smoke", &drifted, &SMOKE_BASELINE);
                assert_eq!(rep.failures(), 1, "{key} x{scale}: {}", rep.render());
                assert!(rep.render().contains("fresh table: [(\"events\", "), "{}", rep.render());
            }
        }
    }
}
