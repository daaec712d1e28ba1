//! Reproduction harness for every table and figure of the paper's
//! evaluation (§VII), and the correctness campaigns behind `results/`.
//!
//! `cargo run --release -p bench --bin repro -- all` regenerates everything;
//! see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
//! paper-vs-measured record.

#![warn(missing_docs)]
pub mod ablation;
pub mod amr;
pub mod analyze;
pub mod breakdown;
pub mod check;
pub mod cli;
pub mod comm;
pub mod experiments;
pub mod faults;
pub mod fidelity;
pub mod problems;
pub mod runner;
pub mod scale;
pub mod serve;
pub mod table;
pub mod timeline;
pub mod torture;
pub mod trace;

pub use problems::{ProblemSpec, ALL_CG_COUNTS, LARGE, MEDIUM, PROBLEMS, SMALL};
pub use runner::{Runner, SweepCell};
pub use table::TextTable;
