//! `swbench` — the benchmark of the Uintah-on-Sunway reproduction.
//!
//! Four seeded workloads, five end-to-end metrics on two clocks (virtual
//! time on the modelled SW26010, host time of the simulator producing it),
//! and a per-layer ledger measured from outside the crates: spans around
//! calls into their public functions and isolated probes of the same
//! functions. See `benchmark/README.md` for the glossary and the layer to
//! end-to-end table, and `BENCHMARK.json` for the contract.

#![warn(missing_docs)]

pub mod agree;
pub mod alloc;
pub mod harness;
pub mod host;
pub mod json;
pub mod layers;
pub mod ledger;
pub mod probes;
pub mod rep;
pub mod rng;
pub mod span;
pub mod stats;
pub mod workloads;
