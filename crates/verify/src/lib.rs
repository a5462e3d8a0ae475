#![warn(missing_docs)]
//! # raidx-verify — static analysis and invariant verification
//!
//! Eleven offline passes that check the reproduction's correctness
//! properties *before and between* simulations, independently of the unit
//! tests. The suite has no modes: every caller — `verify_all`, CI and the
//! tier-1 hook — runs every pass at full size (2–3 s release, 11–18 s debug).
//!
//! 1. [`plan_lint`] — walks the [`sim_core::Plan`] DAGs that the real I/O
//!    engines emit and rejects shapes that would panic or deadlock the
//!    event loop (unknown resources, unregistered barriers, barriers
//!    inside detached subtrees) plus hygiene defects (empty combinators,
//!    zero-byte transfers).
//! 2. [`layout_check`] — exhaustively verifies the OSM placement rule,
//!    the RAID-5 left-symmetric parity rotation, RAID-10 mirror
//!    disjointness and the chained-declustering neighbor rule across a
//!    sweep of (n, k) array shapes.
//! 3. [`determinism`] — runs the same seeded cluster workload twice with
//!    the [`sim_core::trace::EventLog`] tracer installed and once
//!    without: the two event streams must replay byte-identically (every
//!    queue arrival, service start/finish and barrier opening) and all
//!    three runs must agree on the end-of-run aggregates; a perturbation
//!    canary proves an injected event reorder is detected. The
//!    source-level hazards (wall clocks, OS randomness, unordered map
//!    iteration) are clippy's: `clippy.toml` bans plus
//!    `iter_over_hash_type`, acknowledged only by `#[expect]`.
//! 4. [`model_check`] — the `raidx-model` checker: exhaustively
//!    interleaves small multi-client CDD scenarios under the
//!    [`sim_core::explore`] scheduler, asserting lock-group invariants
//!    (no double grant, covered writes, no lost wakeups) at every step.
//! 5. [`linearizability`] — Wing–Gong checks the SIOS read/write history
//!    of every explored schedule against a sequential block-store spec.
//! 6. [`crash_consistency`] — enumerates crash points inside OSM
//!    mirror flushes and two-level checkpoint commits and verifies both
//!    recovery paths always reconstruct a consistent image.
//! 7. [`fault_sweep`] — enumerates deterministic single-fault injection
//!    points (permanent disk failure, transient outage, NIC partition,
//!    node crash, disk slowdown, reconfiguration, replace) across every
//!    architecture mid-workload, asserting byte-for-byte survival after
//!    recovery (degraded writes resynced, rebuilds complete, scrub
//!    clean, no trigger left pending) and that every faulted scenario
//!    replays fingerprint-identically from the same seed and
//!    [`sim_core::FaultPlan`].
//! 8. [`race_detect`] — feeds the merged engine + protocol trace of a
//!    seeded scripted workload to the FastTrack-style vector-clock
//!    happens-before analyzer ([`sim_core::hb`]): conflicting cell
//!    accesses unordered by fork/join/barrier/lock edges, protocol
//!    writes outside any lock-group grant, and same-timestamp events
//!    with overlapping footprints (commutativity violations). Planted
//!    defects (a dropped grant, a skipped barrier, twinned same-tick
//!    disk services) prove each detector class catches real bugs, with
//!    ddmin-shrunk counterexample windows. The trace stream is the only
//!    lock record, so this is where the system's grants are checked.
//! 9. [`static_analysis`] — module size and lint wiring. The static
//!    rules (determinism bans, `unwrap`/`expect` in `sim-core`/`cdd`,
//!    wildcard arms over safety-critical enums, reasoned `#[expect]`
//!    acknowledgements) are toolchain lints run by `scripts/ci.sh`;
//!    this pass keeps what tier-1 can see of them: the 450-line module
//!    cap with a grandfather list that must stay live, every crate
//!    manifest inheriting the workspace lint table, and the lint
//!    switches and `clippy.toml` bans still being spelled out.
//! 10. [`perf_smoke`] — the engine-performance regression gate: re-runs
//!     two small scenarios and compares the deterministic
//!     [`sim_core::EngineStats`] work counters against in-code baseline
//!     tables within a tolerance band, and proves the comparator live
//!     with a planted 3× counter drift. Host time is `benchmark/`'s job.
//! 11. [`cache_coherence`] — the client block-cache gate:
//!     cached-vs-uncached transparency of random op scripts on every
//!     architecture and the Zipfian payoff gate (≥50% hit rate at
//!     s = 1.0, a >1× simulated-time speedup, zero stale reads). The
//!     cache's model check, linearizability and skip-invalidation canary
//!     are rows of passes 4 and 5.
//!
//! Every pass is a library API first: [`PASSES`] is the registry and
//! [`run_pass`] the dispatcher. `cargo run -p bench --bin verify_all`
//! drives all eleven (filterable with `--pass <name>`, listable with
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
/// order (the order `verify_all --list-passes` prints and a full run
/// executes).
pub const PASSES: [(&str, &str); 11] = [
    ("plan-lint", "reject Plan DAG shapes that would panic or deadlock the event loop"),
    ("layout-conformance", "exhaustive OSM/parity/mirror placement rules across array shapes"),
    (
        "determinism",
        "event stream and end-of-run aggregates of the seeded workload replay identically",
    ),
    ("model-check", "exhaustive interleaving of small multi-client CDD scenarios"),
    ("linearizability", "Wing-Gong check of explored SIOS histories against a sequential spec"),
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
        "linearizability" => linearizability::run_pass(),
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
