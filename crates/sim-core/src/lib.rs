#![warn(missing_docs)]
#![warn(clippy::expect_used)]
#![warn(clippy::wildcard_enum_match_arm)]
//! # sim-core — deterministic discrete-event simulation engine
//!
//! The substrate under the RAID-x reproduction. Hardware components (disks,
//! NIC ports, buses, CPUs) are [`ServiceModel`]s registered as resources with
//! a FIFO queue per traffic class; simulated activities are [`Plan`] DAGs built from
//! sequential/parallel composition, resource usages, delays, detached
//! background work and MPI-style barriers. The [`Engine`] interprets plans in
//! simulated time and collects per-resource utilization and per-job latency
//! statistics.
//!
//! Design properties:
//!
//! * **Deterministic** — integer nanosecond clock, insertion-order tie
//!   breaking, explicitly seeded randomness ([`SplitMix64`]). The same
//!   configuration always yields the same result, which the experiment
//!   harness and the property tests rely on.
//! * **Stateful service models** — a model sees demands in simulated-time
//!   order, so e.g. a disk model can track head position and charge less for
//!   sequential access (the effect RAID-x's clustered image writes exploit).
//! * **Foreground/background split** — [`Plan::Background`] expresses
//!   RAID-x's deferred mirror flushes: it never gates job latency, it still
//!   occupies resources but yields every queue to waiting foreground
//!   demands, and [`RunReport`] exposes both the foreground and the drain
//!   completion times.
//! * **Plans are owned, constants are shared** — a plan belongs to the
//!   request it describes and is freed as the engine walks it;
//!   [`Plan::Shared`] is the one node whose steps live behind an `Arc`, for
//!   a sub-plan that is the same for every request (the CDD lock broadcast
//!   of one client, 1,270 leaves at 128 nodes). It runs exactly like
//!   [`Plan::Seq`]; only who owns the steps differs.
//!
//! ```
//! use sim_core::{Engine, FixedRate, Demand};
//! use sim_core::plan::{par, use_res};
//!
//! let mut e = Engine::new();
//! let disk = e.add_resource("disk0", Box::new(FixedRate::rate(15_000_000)));
//! e.spawn_job("write", par(vec![
//!     use_res(disk, Demand::DiskWrite { offset: 0, bytes: 64 << 10 }),
//!     use_res(disk, Demand::DiskWrite { offset: 64 << 10, bytes: 64 << 10 }),
//! ]));
//! let report = e.run().unwrap();
//! assert!(report.end.as_secs_f64() > 0.0);
//! ```

pub mod check;
pub mod demand;
pub mod engine;
pub mod explore;
pub mod export;
pub mod fault;
pub mod hb;
pub mod metrics;
pub mod plan;
pub mod prof;
pub mod resource;
pub mod rng;
pub mod time;
pub mod trace;
pub mod validate;

pub use demand::Demand;
pub use engine::{DeadlockError, Engine, JobId, JobRecord, RunReport, TaskId};
pub use explore::{Exploration, Explorer, Failure, FailureKind, Footprint, Model, ThreadId};
pub use export::{chrome_trace_json, json_is_valid, metrics_csv, metrics_json, utilization_csv};
pub use fault::FaultPlan;
pub use hb::{HbAnalysis, HbViolation, ViolationKind};
pub use metrics::{Histogram, MetricsRegistry, TimeSeries};
pub use plan::{BarrierId, Plan};
pub use prof::EngineStats;
pub use resource::{FixedRate, ResourceId, ResourceStats, ServiceModel};
pub use rng::{fnv1a, SplitMix64};
pub use time::{SimDuration, SimTime};
pub use trace::{AccessKind, DemandKind, EventLog, NoopTracer, TimedEvent, TraceEvent, Tracer};
pub use validate::{PlanContext, PlanError, Strictness};
