#![warn(missing_docs)]
//! # raidx-verify — static analysis and invariant verification
//!
//! Ten offline passes that check the reproduction's correctness
//! properties *before and between* simulations, independently of the unit
//! tests. The suite has no modes: every caller — `bench verify`, CI and the
//! tier-1 hook — runs every pass at full size (2–3 s release, 11–18 s debug).
//!
//! Each pass's module documents what it checks and the planted defect
//! (canary) that proves its detector live:
//!
//! 1. [`plan_lint`] — Plan DAG shapes that would panic or deadlock the engine.
//! 2. [`layout_check`] — OSM, RAID-5 parity, RAID-10 and chained placement.
//! 3. [`determinism`] — event streams and aggregates replay byte-identically.
//! 4. [`model_check`] — every interleaving of small CDD lock-protocol
//!    scenarios keeps the lock-group invariants, and every history is
//!    linearizable ([`linearizability`]).
//! 5. [`crash_consistency`] — recovery after every crash point of OSM
//!    flushes and two-level checkpoint commits.
//! 6. [`fault_sweep`] — every single-fault injection point recovers byte
//!    for byte and replays fingerprint-identically.
//! 7. [`race_detect`] — vector-clock happens-before races, uncovered
//!    writes and same-tick commutativity violations ([`sim_core::hb`]).
//! 8. [`static_analysis`] — the module-size cap and the wiring of the
//!    clippy lints that own the static rules.
//! 9. [`perf_smoke`] — deterministic engine work counters against
//!    in-code baselines; host time is `benchmark/`'s job.
//! 10. [`cache_coherence`] — cached-vs-uncached transparency and the
//!     Zipfian payoff gate; the cache protocol is a row of pass 4.
//!
//! Every pass is a library API first: [`PASSES`] is the registry and
//! [`run_pass`] the dispatcher. `cargo run -p bench -- verify`
//! drives all ten (filterable with `--pass <name>`, listable with
//! `--list-passes`, exportable with `--json <path>`) and exits non-zero
//! on any finding; the root package's `tests/verify_smoke.rs` runs the
//! same registry under `cargo test`.

pub mod cache_coherence;
pub mod crash_consistency;
pub mod determinism;
pub mod fault_sweep;
pub mod layout_check;
pub mod linearizability;
pub mod model_check;
pub mod perf_smoke;
pub mod plan_lint;
pub mod race_detect;
pub mod report;
pub mod static_analysis;

pub use determinism::{
    audit_workload, diff_streams, engine_fingerprint, stream_fingerprint, DeterminismReport,
};
pub use fault_sweep::{FaultKind, SweepOutcome, SweepScenario};
pub use layout_check::{conformance_sweep, SweepRow};
pub use linearizability::check_history;
pub use plan_lint::lint_io_paths;
pub use report::{Check, PassReport};

fn layout_pass() -> PassReport {
    let mut report = PassReport::new("layout-conformance");
    for row in conformance_sweep() {
        let name = format!("{} {}x{}", row.arch, row.shape.0, row.shape.1);
        let detail = if row.ok() {
            format!("{} blocks conform", row.checked)
        } else {
            format!(
                "{} violations, first: {}",
                row.violations.len(),
                row.violations.first().map(String::as_str).unwrap_or("")
            )
        };
        report.push(name, row.ok(), detail);
    }
    report
}

/// Registry of every pass with a one-line description, in execution
/// order (the order `bench verify --list-passes` prints and a full run
/// executes).
pub const PASSES: [(&str, &str); 10] = [
    ("plan-lint", "reject Plan DAG shapes that would panic or deadlock the event loop"),
    ("layout-conformance", "exhaustive OSM/parity/mirror placement rules across array shapes"),
    (
        "determinism",
        "event stream and end-of-run aggregates of the seeded workload replay identically",
    ),
    ("model-check", "every interleaving of small CDD lock scenarios; every history linearizable"),
    ("crash-consistency", "crash-point enumeration inside OSM flushes and checkpoint commits"),
    ("fault-sweep", "every enumerated single-fault point recovers byte-for-byte"),
    ("race-detect", "vector-clock happens-before races and same-tick commutativity violations"),
    (
        "static-analysis",
        "module-size cap and the wiring of the clippy lints that own the static rules",
    ),
    ("perf-smoke", "deterministic engine work counters vs the in-code baseline tables"),
    (
        "cache-coherence",
        "client block-cache gate: cached-vs-uncached transparency, Zipf hit-rate/speedup",
    ),
];

/// Run the pass registered under `name` in [`PASSES`]. Panics on a name
/// that is not in the registry.
pub fn run_pass(name: &str) -> PassReport {
    match name {
        "plan-lint" => lint_io_paths(),
        "layout-conformance" => layout_pass(),
        "determinism" => determinism::run_pass(),
        "model-check" => model_check::run_pass(),
        "crash-consistency" => crash_consistency::run_pass(),
        "fault-sweep" => fault_sweep::run_pass(),
        "race-detect" => race_detect::run_pass(),
        "static-analysis" => {
            let crates_dir =
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates dir");
            static_analysis::run_pass(crates_dir)
        }
        "perf-smoke" => perf_smoke::run_pass(),
        "cache-coherence" => cache_coherence::run_pass(),
        other => panic!("unregistered pass {other}"),
    }
}
