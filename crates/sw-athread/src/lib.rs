//! An `athread`-like offload layer for the simulated SW26010.
//!
//! The real Sunway `athread` library binds one lightweight thread to each
//! CPE, and provides DMA transfer (`athread_get`/`athread_put`) between main
//! memory and the 64 KB per-CPE LDM plus an atomic `faaw` for completion
//! flags (paper §IV-B). This crate reproduces that interface over the
//! `sw-sim` machine model:
//!
//! * [`tile`] — tile the patch to the LDM budget and assign tiles to CPEs by
//!   z-partition (paper §V-B, §V-D, §VI-A);
//! * [`cost`] — closed-form kernel timing (DMA-in + compute + DMA-out per
//!   tile, serial per CPE, max over CPEs);
//! * [`exec`] — *functional* execution of the same tile schedule with real
//!   data through a capacity-enforced LDM;
//! * [`flag`] — the `faaw`-incremented main-memory completion flag;
//! * [`group`] — the offload facade (`spawn` + completion event handling).

#![warn(missing_docs)]
pub mod cost;
#[cfg(test)]
mod detailed;
pub mod exec;
pub mod flag;
pub mod group;
pub mod tile;

pub use cost::{
    kernel_timing, tile_time, with_spin_penalty, KernelRate, KernelTiming, TileCostModel,
    TransferMode,
};
pub use exec::{
    idx3, run_patch_functional, run_patch_functional_with, serial_fallback_count, CpeTileKernel,
    ExecPolicy, Field3, Field3Mut, TileCtx,
};
pub use flag::CompletionFlag;
pub use group::{AthreadGroup, KernelHandle, NEVER};
pub use tile::{
    assign_tiles, cells, choose_tile_shape, is_exact_partition, tiles_of, validate_patch_geometry,
    Dims3, GeomError, InOutFootprint, LdmFootprint, TileDesc, MAX_AXIS_CELLS, MAX_VOLUME_CELLS,
};
