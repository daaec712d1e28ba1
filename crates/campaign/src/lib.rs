//! `sw-campaign` — the campaign service: paper sweeps served as production
//! traffic (ROADMAP item 5, DESIGN.md §16).
//!
//! A [`Service`] accepts batches of typed-validated [`uintah_core::RunConfig`]
//! jobs into a seeded, **deduplicating** work queue, shards them across an
//! N-worker pool (each worker drives [`uintah_core::Simulation`] through the
//! existing `ExecPolicy`/PDES knobs), and caches results in a
//! **content-addressed store** keyed on the 128-bit FNV-1a hash of the
//! job's canonical line ([`uintah_core::canonical_job`]). Byte-identical
//! replays hit the cache; a hash collision between *different* canonical
//! lines is a hard error, never a silent wrong answer.
//!
//! Worker failures reuse the `sw-resilience` discipline one level up: a
//! seeded [`sw_resilience::FaultPlan`] decides worker deaths and stragglers
//! as a pure function of `(seed, job key, attempt)` — never of which worker
//! or in what order — so a crashing worker costs a detected retry with
//! exponential backoff, repeat offenders are blacklisted, and when every
//! worker is blacklisted the coordinator degrades to inline execution. A
//! job is therefore **never lost and never duplicated**: the drain asserts
//! exactly-once completion over the submitted set.
//!
//! The drain runs the cache misses in rounds, one per attempt number, and
//! routes each round before it starts, so every number in the outcome
//! apart from the host clocks is a function of the jobs and the
//! [`CampaignConfig`].
//!
//! Reproducibility is enforced, not assumed: an always-on oracle re-executes
//! a seeded sample of cache hits and compares result bytes against the
//! stored record. Service telemetry (cache hit rate, retries, p50/p99
//! attempt latency over a `sw-telemetry` log2 histogram) streams to stderr
//! every `stream_every` completions; the latencies and the drain's wall
//! time are host clocks, printed by `repro serve` and never written to an
//! artifact.
//!
//! The `repro serve` subcommand in `bench` is the CLI front-end (JSONL job
//! stream in, per-job records + campaign summary out, graceful drain on
//! shutdown); this crate is the library behind it.

#![warn(missing_docs)]

pub mod job;
pub mod service;
pub mod store;

pub use job::{demo_jobs, JobSpec};
pub use service::{AppFactory, CampaignConfig, CampaignOutcome, JobRecord, Service};
pub use store::{ResultStore, StoreError};
