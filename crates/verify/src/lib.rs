#![warn(missing_docs)]
//! # raidx-verify — static analysis and invariant verification
//!
//! Thirteen offline passes that check the reproduction's correctness
//! properties *before and between* simulations, independently of the unit
//! tests:
//!
//! 1. [`plan_lint`] — walks the [`sim_core::Plan`] DAGs that the real I/O
//!    engines emit and rejects shapes that would panic or deadlock the
//!    event loop (unknown resources, unregistered barriers, barriers
//!    inside detached subtrees) plus hygiene defects (empty combinators,
//!    zero-byte transfers).
//! 2. [`lock_order`] — replays a recorded [`cdd::LockEvent`] trace and
//!    reports double grants, releases without a matching grant, leaked
//!    lock groups, and cycles in the block-range acquisition order
//!    (potential distributed deadlock).
//! 3. [`layout_check`] — exhaustively verifies the OSM placement rule,
//!    the RAID-5 left-symmetric parity rotation, RAID-10 mirror
//!    disjointness and the chained-declustering neighbor rule across a
//!    sweep of (n, k) array shapes.
//! 4. [`determinism`] — runs the same seeded cluster workload twice and
//!    fingerprints the event traces (they must be bit-identical). The
//!    source-level hazards (wall clocks, OS randomness, unordered map
//!    iteration) are clippy's: `clippy.toml` bans plus
//!    `iter_over_hash_type`, acknowledged only by `#[expect]`.
//! 5. [`model_check`] — the `raidx-model` checker: exhaustively
//!    interleaves small multi-client CDD scenarios under the
//!    [`sim_core::explore`] scheduler, asserting lock-group invariants
//!    (no double grant, covered writes, no lost wakeups) at every step.
//! 6. [`linearizability`] — Wing–Gong checks the SIOS read/write history
//!    of every explored schedule against a sequential block-store spec.
//! 7. [`crash_consistency`] — enumerates crash points inside OSM
//!    mirror flushes and two-level checkpoint commits and verifies both
//!    recovery paths always reconstruct a consistent image.
//! 8. [`trace_determinism`] — double-runs the seeded workload with the
//!    [`sim_core::trace::EventLog`] tracer installed and fingerprints
//!    the full observability event stream (every queue arrival, service
//!    start/finish and barrier opening must replay byte-identically),
//!    plus a perturbation canary that proves an injected event reorder
//!    is detected.
//! 9. [`fault_sweep`] — enumerates deterministic single-fault injection
//!    points (permanent disk failure, transient outage, NIC partition,
//!    node crash, disk slowdown) across every architecture mid-workload,
//!    asserting byte-for-byte survival after recovery (degraded writes
//!    resynced, rebuilds complete, scrub clean, no trigger left
//!    pending) and that every faulted scenario replays
//!    fingerprint-identically from the same seed and
//!    [`sim_core::FaultPlan`].
//! 10. [`race_detect`] — feeds the merged engine + protocol trace of a
//!     seeded scripted workload to the FastTrack-style vector-clock
//!     happens-before analyzer ([`sim_core::hb`]): conflicting cell
//!     accesses unordered by fork/join/barrier/lock edges, protocol
//!     writes outside any lock-group grant, and same-timestamp events
//!     with overlapping footprints (commutativity violations). Planted
//!     defects (a dropped grant, a skipped barrier, twinned same-tick
//!     disk services) prove each detector class catches real bugs, with
//!     ddmin-shrunk counterexample windows.
//! 11. [`static_analysis`] — module size and lint wiring. The static
//!     rules (determinism bans, `unwrap`/`expect` in `sim-core`/`cdd`,
//!     wildcard arms over safety-critical enums, reasoned `#[expect]`
//!     acknowledgements) are toolchain lints run by `scripts/ci.sh`;
//!     this pass keeps what tier-1 can see of them: the 450-line module
//!     cap with a grandfather list that must stay live, every crate
//!     manifest inheriting the workspace lint table, and the lint
//!     switches and `clippy.toml` bans still being spelled out.
//! 12. [`perf_smoke`] — the engine-performance regression gate: re-runs
//!     two small scenarios and compares the deterministic
//!     [`sim_core::EngineStats`] work counters against in-code baseline
//!     tables within a tolerance band, and proves the comparator live
//!     with a planted 3× counter drift. Host time is `benchmark/`'s job.
//! 13. [`cache_coherence`] — the client block-cache gate: exhaustive
//!     model checking and linearizability of the `cache-coherence`
//!     scenario (with a planted skip-invalidation canary the checker
//!     must catch), cached-vs-uncached transparency of random op
//!     scripts on every architecture, and the Zipfian payoff gate (≥50%
//!     hit rate at s = 1.0, a >1× simulated-time speedup, zero stale
//!     reads).
//!
//! Every pass is a library API first: [`PASSES`] is the registry and
//! [`run_pass`] the dispatcher. `cargo run -p bench --bin verify_all`
//! drives all thirteen (filterable with `--pass <name>`, listable with
//! `--list-passes`, exportable with `--json <path>`) and exits non-zero
//! on any finding; the root package's `tests/verify_smoke.rs` runs the
//! same registry under `cargo test`.

pub mod cache_coherence;
pub mod crash_consistency;
pub mod determinism;
pub mod fault_sweep;
pub mod layout_check;
pub mod linearizability;
pub mod lock_order;
pub mod model_check;
pub mod perf_smoke;
pub mod plan_lint;
pub mod race_detect;
pub mod report;
pub mod static_analysis;
pub mod trace_determinism;

pub use determinism::{audit_workload, engine_fingerprint, DeterminismReport};
pub use fault_sweep::{FaultKind, SweepOutcome, SweepScenario};
pub use layout_check::{conformance_sweep, SweepRow};
pub use linearizability::check_history;
pub use lock_order::{analyze_lock_trace, LockAuditReport, LockDefect};
pub use plan_lint::lint_io_paths;
pub use report::{Check, PassReport};
pub use trace_determinism::{audit_trace, diff_streams, stream_fingerprint, TraceAudit};

fn lock_order_pass() -> PassReport {
    let mut report = PassReport::new("lock-order");
    for arch in raidx_core::Arch::ALL {
        let (_engine, mut sys) = cdd::testkit::shape(4, 2, 8 << 20, arch);
        let bs = sys.block_size() as usize;
        sys.enable_lock_trace();
        let name = sys.layout().name();
        let stripe = sys.layout().stripe_width();
        let buf = vec![0x77; bs];
        let wide = vec![0x11; bs * stripe];
        for client in 0..4u64 {
            for b in 0..6u64 {
                sys.write(client as usize, client * 16 + b, &buf).expect("write");
            }
            sys.write(client as usize, client * 16 + 8, &wide).expect("stripe write");
        }
        let trace = sys.take_lock_trace();
        let audit = analyze_lock_trace(&trace);
        let detail = if audit.clean() {
            format!("{} grants, {} order edges, no defects", audit.grants, audit.order_edges)
        } else {
            audit.defects.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ")
        };
        report.push(format!("{name} lock trace"), audit.clean(), detail);
    }
    report
}

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

fn determinism_pass() -> PassReport {
    let mut report = PassReport::new("determinism");
    for arch in raidx_core::Arch::ALL {
        let audit = audit_workload(arch);
        let name = format!("{arch:?} double run");
        let detail = match &audit.divergence {
            None => {
                format!("fingerprint {:016x}, {} trace lines", audit.fingerprint_a, audit.lines)
            }
            Some((i, a, b)) => format!("diverged at line {i}: `{a}` vs `{b}`"),
        };
        report.push(name, audit.deterministic(), detail);
    }
    report
}

/// Registry of every pass with a one-line description, in execution
/// order (the order `verify_all --list-passes` prints and a full run
/// executes).
pub const PASSES: [(&str, &str); 13] = [
    ("plan-lint", "reject Plan DAG shapes that would panic or deadlock the event loop"),
    ("lock-order", "replay recorded lock-group traces for double grants, leaks and order cycles"),
    ("layout-conformance", "exhaustive OSM/parity/mirror placement rules across array shapes"),
    ("determinism", "double-run aggregate fingerprints of the seeded workload per architecture"),
    ("model-check", "exhaustive interleaving of small multi-client CDD scenarios"),
    ("linearizability", "Wing-Gong check of explored SIOS histories against a sequential spec"),
    ("crash-consistency", "crash-point enumeration inside OSM flushes and checkpoint commits"),
    ("trace-determinism", "full observability event stream must replay byte-identically"),
    ("fault-sweep", "every enumerated single-fault point recovers byte-for-byte"),
    ("race-detect", "vector-clock happens-before races and same-tick commutativity violations"),
    ("static-analysis", "module-size cap and the wiring of the clippy lints that own the static rules"),
    ("perf-smoke", "deterministic engine work counters vs the in-code baseline tables"),
    ("cache-coherence", "client block-cache gate: model check + linearizability with a skip-invalidation canary, cached-vs-uncached transparency, Zipf hit-rate/speedup"),
];

/// Run the pass registered under `name` in [`PASSES`]. `budget` bounds
/// the schedules explored per model-checking scenario; `smoke` shrinks
/// the fault sweep and race detector to their CI subsets. Panics on a
/// name that is not in the registry.
pub fn run_pass(name: &str, budget: u64, smoke: bool) -> PassReport {
    match name {
        "plan-lint" => lint_io_paths(),
        "lock-order" => lock_order_pass(),
        "layout-conformance" => layout_pass(),
        "determinism" => determinism_pass(),
        "model-check" => model_check::run_pass(budget),
        "linearizability" => linearizability::run_pass(budget),
        "crash-consistency" => crash_consistency::run_pass(),
        "trace-determinism" => trace_determinism::run_pass(),
        "fault-sweep" => fault_sweep::run_pass(smoke),
        "race-detect" => race_detect::run_pass(smoke),
        "static-analysis" => {
            let crates_dir =
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates dir");
            static_analysis::run_pass(crates_dir)
        }
        "perf-smoke" => perf_smoke::run_pass(),
        "cache-coherence" => cache_coherence::run_pass(budget),
        other => panic!("unregistered pass {other}"),
    }
}
