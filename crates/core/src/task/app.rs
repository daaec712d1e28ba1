//! The application interface: what a simulation component provides to the
//! runtime.
//!
//! Uintah users describe their problem as coarse tasks over patches
//! (paper §II). The ported model problem has the canonical time-stepping
//! shape — one offloadable stencil kernel advancing `u` to `u_new`, boundary
//! fills on the MPE, and a per-step global reduction — so the application
//! trait captures exactly that shape. The Burgers problem (crate `burgers`)
//! and the heat-equation example both implement it.

use sw_athread::{CpeTileKernel, TileCostModel};
use sw_math::ExpKind;
use sw_mpi::ReduceOp;

use crate::grid::{Level, Region};
use crate::var::CcVar;

/// A time-stepping stencil application runnable by the Sunway schedulers.
///
/// Kernel parameter convention: `TileCtx::params == [t_stage, dt, stage]`
/// for the current timestep.
///
/// ## Multi-stage task graphs
///
/// Uintah problems are "a collection of dependent coarse tasks" (paper §II).
/// An application may declare several *stages* per timestep
/// ([`Application::stages`], default 1): stage `s` reads the ghosted output
/// of stage `s - 1` (stage 0 reads the previous step's solution) and writes
/// its own output; the last stage's output becomes the new solution. Every
/// stage gets its own ghost exchange — the scheduler posts the stage's
/// sends when the producing task completes, exactly the paper's §V-C
/// step 3(b)i — so a three-stage application exercises a task graph three
/// tasks deep per patch per step (see `apps::SplitHeatApp`).
pub trait Application: Send + Sync {
    /// Application name (reports).
    fn name(&self) -> &str;

    /// Ghost layers the kernel requires (1 for the Burgers kernel, §III).
    fn ghost(&self) -> i64;

    /// Per-tile cost model (flops, exp share, DMA bytes).
    fn cost(&self) -> &dyn TileCostModel;

    /// The numerical kernel: scalar or SIMD-vectorized variant.
    fn kernel(&self, simd: bool) -> &dyn CpeTileKernel;

    /// Flops per boundary ghost cell of the MPE boundary fill (evaluating
    /// the exact solution on the domain shell).
    fn bc_flops_per_cell(&self) -> u64;

    /// Stable timestep for this level's spacing.
    fn stable_dt(&self, level: &Level) -> f64;

    /// The exp library this application's kernels and cost model evaluate,
    /// if they evaluate one (default: none). A run whose `variant.exp`
    /// names another library would model one kernel and time another.
    fn exp(&self) -> Option<ExpKind> {
        None
    }

    /// Functional hook: initial condition over `region` (cell centers).
    fn init(&self, level: &Level, region: &Region, var: &mut CcVar);

    /// Functional hook: fill the boundary ghost `region` at time `t`.
    fn fill_boundary(&self, level: &Level, region: &Region, var: &mut CcVar, t: f64);

    /// Functional hook: this patch's contribution to the per-step reduction.
    fn reduce(&self, out: &CcVar) -> f64 {
        out.max_abs()
    }

    /// The reduction operator.
    fn reduce_op(&self) -> ReduceOp {
        ReduceOp::Max
    }

    /// Reduction contribution used in model mode (no data exists).
    fn model_reduction_value(&self) -> f64 {
        1.0
    }

    /// Number of dependent kernel stages per timestep (default 1).
    fn stages(&self) -> usize {
        1
    }

    /// The kernel of stage `stage` (default: the single kernel).
    fn stage_kernel(&self, _stage: usize, simd: bool) -> &dyn CpeTileKernel {
        self.kernel(simd)
    }

    /// The cost model of stage `stage` (default: the single cost model).
    fn stage_cost(&self, _stage: usize) -> &dyn TileCostModel {
        self.cost()
    }

    /// Physical time at which stage `stage`'s input boundary ghosts are
    /// filled (default: the step's start time).
    fn stage_time(&self, _stage: usize, t: f64, _dt: f64) -> f64 {
        t
    }
}
