#![warn(missing_docs)]
//! # workloads — benchmark generators for the RAID-x evaluation
//!
//! The two measured workloads of the paper:
//!
//! * [`parallel_io`] — the synchronized parallel read/write benchmark
//!   behind Figure 5 and Table 3 (large = 2 MB/client, small = 32 KB,
//!   barrier-synchronized bursts, private uncached files);
//! * [`andrew`] — a synthetic Andrew benchmark (Figure 6): MakeDir, Copy,
//!   ScanDir, ReadAll and Make phases over the cluster file system.
//!
//! Both run unchanged over every architecture through
//! [`cdd::BlockStore`].

pub mod andrew;
pub mod latency;
pub mod mixed;
pub mod op_script;
pub mod parallel_io;
pub mod zipf;

pub use andrew::{run_andrew, AndrewConfig, AndrewResult, PHASES};
pub use latency::{measure_latency, LatencyResult};
pub use mixed::{run_mixed, MixedConfig, MixedResult};
pub use op_script::{run_op, ScriptOp, ScriptOutcome};
pub use parallel_io::{run_parallel_io, BandwidthResult, IoPattern, ParallelIoConfig};
pub use zipf::{run_zipf, ZipfConfig, ZipfOutcome, ZipfSampler};
