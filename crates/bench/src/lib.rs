//! # centaur-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Centaur paper's evaluation from the workspace's system simulators.
//!
//! Each `fig*`/`table*` binary in `src/bin/` prints the rows/series of the
//! corresponding paper artifact; [`runner`] holds the shared sweep logic and
//! [`report`] the plain-text table / CSV emitters. Run the binaries in
//! release mode, e.g.:
//!
//! ```text
//! cargo run --release -p centaur-bench --bin fig14_speedup_breakdown
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;
pub mod runner;

pub use report::TextTable;
pub use runner::{BatchSweepPoint, BatchThroughputPoint, ExperimentRunner, SystemComparison};
