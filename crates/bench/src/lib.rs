#![warn(missing_docs)]
//! # bench — the experiment harness
//!
//! One module (and one binary under `src/bin`) per table/figure of the
//! paper, plus ablations. Each experiment function returns its results as
//! a rendered markdown fragment so `all_experiments` can regenerate the
//! data sections of `EXPERIMENTS.md` in one run.

pub mod exp_ablations;
pub mod exp_degraded;
pub mod exp_fault;
pub mod exp_fig5;
pub mod exp_fig6;
pub mod exp_fig7;
pub mod exp_latency;
pub mod exp_layouts;
pub mod exp_mixed;
pub mod exp_reliability;
pub mod exp_scalability;
pub mod exp_table2;
pub mod exp_table3;
pub mod exp_trace;
pub mod exp_utilization;
pub mod harness;

pub use harness::{build_store, par_map, SystemKind};
