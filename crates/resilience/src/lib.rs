//! Resilience plane for the simulated Sunway runtime.
//!
//! The paper's asynchronous scheduler (§V) assumes every CPE offload
//! completes and every MPI message arrives. At the 128-CG scale it
//! evaluates — and at the production scale the ROADMAP targets — slot
//! failures, dropped or late messages, and stragglers are the norm. This
//! crate is the *fault plane* the rest of the stack consults, plus the
//! recovery bookkeeping and the checkpoint container:
//!
//! * [`plan`] — a seeded, **schedule-independent** [`FaultPlan`]: every
//!   decision is a pure function of `(seed, stable entity id)`, never of
//!   call order, so the same plan reproduces the same faults across all
//!   five scheduler variants and across repeated runs;
//! * [`stats`] — shared atomic counters every layer increments as it
//!   injects, detects, and recovers faults (rendered into
//!   `results/FAULTS.json` by `repro faults`);
//! * [`ckpt`] — a self-contained binary checkpoint container (warehouse
//!   fields as exact f64 bit patterns + controller step state) with a
//!   byte-stable on-disk format.
//!
//! The crate is a dependency **leaf** (like `sw-telemetry`): `sw-sim`,
//! `sw-mpi`, `sw-athread`, and `uintah-core` all sit above it, each
//! consulting the plan at its own shim boundary — DMA errors in the
//! machine, slot death and stragglers in the athread layer, message
//! drop/duplication/delay in the MPI layer.

#![warn(missing_docs)]
pub mod ckpt;
pub mod plan;
pub mod stats;

pub use ckpt::{AmrLevelRecord, AmrSection, Checkpoint, PatchRecord};
pub use plan::{
    fold, splitmix64, FaultConfig, FaultPlan, FaultPreset, MsgFault, MsgKey, OffloadKey, SlotFault,
};
pub use stats::{FaultCounts, FaultStats};
