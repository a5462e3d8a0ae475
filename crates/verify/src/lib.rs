#![warn(missing_docs)]
//! # raidx-verify — whole-system checks, run as `cargo test`
//!
//! Each module is one family of `#[test]`s over the real simulator at full
//! size: `cargo test -q -p raidx-verify [filter]` runs them (`-- --list`
//! names them all). They live here, not in the crates they check, because
//! they drive `workloads` and `nfs-sim`, which those crates cannot depend
//! on. The layouts' placement rules need neither and are `raidx-core`'s own
//! tests (`crates/core/tests/layout_properties.rs`).
//!
//! Values a test pins — fingerprints, digests, work counters — are
//! `const` tables beside it; a failing comparison prints the fresh table,
//! ready to paste after an intentional change. Each module documents what
//! it checks and the planted defect that proves its detector live:
//!
//! * [`plan_lint`] — every real I/O path emits a plan the engine accepts.
//! * [`determinism`] — event streams and aggregates replay byte-identically.
//! * [`static_analysis`] — the module-size cap and the wiring of the
//!   clippy lints that own the static rules.
//! * [`perf_smoke`] — deterministic engine work counters against an
//!   in-code baseline; host time is `benchmark/`'s job.
//!
//! The fault harness is an integration test, `tests/model_based.rs`, and
//! the only test that drives `cdd::FaultInjector` over scripted ops:
//! random op scripts checked against `workloads::op_script`'s shadow
//! model under any fault sequence, beyond what the layout tolerates —
//! timed slowdowns and a retirement's in-flight migration included —
//! each case replayed to an identical event stream, with one digest per
//! architecture pinned. `tests/static_sweep.rs` reads every fault set of
//! up to three disks back through the data path.

pub mod determinism;
pub mod perf_smoke;
pub mod plan_lint;
pub mod static_analysis;
