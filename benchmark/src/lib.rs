//! The repository benchmark. See `README.md` beside this package.
#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod compare;
pub mod drivers;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod store;
pub mod workload;
