#![warn(missing_docs)]
#![warn(clippy::expect_used)]
#![warn(clippy::wildcard_enum_match_arm)]
//! # cdd — cooperative disk drivers and the single I/O space
//!
//! The paper's enabling mechanism, reproduced in user space: every node's
//! CDD combines a *storage manager* (serves its local disks to peers), a
//! *client module* (redirects local requests to remote managers — device
//! masquerading) and a *consistency module* (a replicated lock-group table
//! granting block-range write permissions atomically). Together the CDDs
//! form a **single I/O space**: any node addresses any block of the
//! cluster-wide array with no central server.
//!
//! [`IoSystem`] is the entry point: it executes logical reads/writes for
//! any client node, on any of the four layouts, producing both the real
//! data movement (functional plane) and the timing [`sim_core::Plan`]
//! (simulation plane). It also executes disk failure and rebuild.
//!
//! ## Module map — the layered request pipeline
//!
//! A request flows top to bottom (see DESIGN.md, "CDD pipeline"):
//!
//! | module | layer |
//! |---|---|
//! | [`frontend`] | front end / admission: range + length validation (shared with `nfs_sim`), run coalescing, read replica selection |
//! | [`cache`] | per-client block cache in front of the read path, kept coherent by write-grant invalidations and epoch flushes |
//! | `IoSystem::with_grant` (in [`system`]) | consistency module: the paper's replicated lock-group table is one grant counter and a live-grant guard, since every `IoSystem` call is atomic |
//! | `scheme` | write schemes: one `IoSystem` method per [`raidx_core::WriteScheme`] arm (plain / mirror; parity in `parity`) |
//! | `image_queue` | data plane write-behind: the bounded OSM `ImageQueue` |
//! | `placer` | epoch-versioned slot→physical placement: the `Placer` owns the disk roster, the slot binding and the in-flight migration |
//! | [`system`] | the [`IoSystem`] state — configuration, planes, placer, ledgers |
//! | [`datapath`] | the request pipeline: validated, locked writes and translated reads |
//! | [`membership`] | fault injection hooks and epoch transitions (add/remove/replace disks) |
//! | [`restore`] | the one restore path: `RestoreStep` (XOR of inputs → destination) and its compare-then-write executor, shared by the three rows below |
//! | [`maintenance`] | scrub and the rebuild entry point (outside the request pipeline) |
//! | [`resync`] | transient recovery: restoring the blocks parked by degraded writes |
//! | [`rebalance`] | incremental migration draining an epoch transition's pending set |
//! | [`fault`] | deterministic mid-workload fault injection ([`FaultInjector`]) |
//!
//! Supporting modules: [`config`] (the policies an experiment varies,
//! including the [`CddConfig::max_image_backlog`] backpressure bound),
//! [`error`] (the shared [`IoError`]), [`ops`] (plan builders and the
//! protocol's cost constants), [`runs`] (coalescing), [`store`] (the
//! [`BlockStore`] abstraction over CDD and NFS) and [`testkit`] (shared
//! test/bench constructors). `scheme`, `parity`, `image_queue` and
//! `placer` are private to the crate: other crates reach them only
//! through [`IoSystem`].

pub mod cache;
pub mod config;
pub mod datapath;
pub mod error;
pub mod fault;
pub mod frontend;
mod image_queue;
pub mod maintenance;
pub mod membership;
pub mod ops;
mod parity;
mod placer;
pub mod rebalance;
pub mod restore;
pub mod resync;
pub mod runs;
mod scheme;
pub mod store;
pub mod system;
pub mod testkit;

pub use cache::{CacheConfig, CacheStats};
pub use config::{CddConfig, ReadBalance};
pub use error::IoError;
pub use fault::{FaultEvent, FaultInjector};
pub use ops::OpBuilder;
pub use restore::RestoreOutcome;
pub use runs::{merge_runs, Run};
pub use store::BlockStore;
pub use system::IoSystem;
