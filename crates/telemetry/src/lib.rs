//! `sw-telemetry` — structured span/event telemetry for the simulated
//! Sunway runtime.
//!
//! The paper's central claim is *overlap*: the async scheduler hides MPI
//! progression and rendezvous handshakes behind CPE kernel execution
//! (§V-C). This crate is the measurement substrate that makes the claim
//! observable from our own instrumentation:
//!
//! * [`event`] — a typed event taxonomy (tasks, offloads, DMA, message
//!   protocol, reductions, barriers, idle) on per-rank [`Lane`]s, stamped
//!   with virtual picoseconds (and optionally host wall clock);
//! * [`recorder`] — the zero-cost-when-disabled [`Recorder`]: a disabled
//!   handle is a single branch on the hot path, no allocation (proved by
//!   the counting-allocator test in `tests/alloc_count.rs`);
//! * [`metrics`] — an always-on registry of atomic counters and log2
//!   histograms ([`Metrics`]);
//! * [`json`] — the one JSON writer (and string escaper) every artifact
//!   renderer in the workspace goes through;
//! * [`perfetto`] — a Chrome trace-event / Perfetto JSON exporter (one
//!   track per rank MPE + CPE lane + wire, flow arrows send→recv);
//! * [`phases`] — the derived-metrics pass: exact per-step 4-way phase
//!   partitions (compute / comm-hidden / comm-exposed / idle), overlap
//!   efficiency, and critical-path extraction;
//! * [`race`] — vector-clock happens-before reconstruction over a trace
//!   (program order, offload fork/join, message and reduction edges) and
//!   a FastTrack-style conflicting-access checker.
//!
//! This crate is a dependency **leaf** (even `sw-sim` depends on it: the
//! machine records its hardware events through a [`Recorder`]), so times
//! are raw `u64` picoseconds — callers pass `SimTime.0`.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod phases;
pub mod race;
pub mod recorder;

pub use event::{Event, EventRecord, Lane};
pub use metrics::{Counter, Hist, Metrics};
pub use phases::{analyze, CritPathEntry, PhaseBreakdown, PhaseReport};
pub use race::{trace_hb, AccessKind, AccessSpan, RaceFinding, RaceReport, TraceHb};
pub use recorder::Recorder;
