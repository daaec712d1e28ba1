//! Probes of the numerics side: `sw-math`, `burgers`, `sw-athread` and the
//! rayon stand-in.

use std::hint::black_box;

use burgers::{BurgersCost, BurgersScalarKernel, BurgersSimdKernel, Geometry};
use sw_athread::{
    assign_tiles, choose_tile_shape, kernel_timing, run_patch_functional_with, tiles_of,
    CpeTileKernel, Dims3, ExecPolicy, Field3, Field3Mut, InOutFootprint, KernelRate, TileCtx,
    TileDesc,
};
use sw_math::{exp_accurate, exp_fast, ExpKind};
use sw_sim::MachineConfig;

use super::{secs_per_op, ProbeCtx};
use crate::host;
use crate::rng::Rng;
use crate::workloads::Size;

/// `sw-math`: nanoseconds per `exp_fast` / `exp_accurate` call over fixed
/// arguments spread over the range the Burgers kernel uses.
pub fn sw_math(ctx: &mut ProbeCtx<'_>) {
    let mut rng = Rng::new(7, 100);
    let args: Vec<f64> = (0..4096).map(|_| -30.0 + 35.0 * rng.unit()).collect();
    let rounds = ctx.iters(200);
    let time = |f: fn(f64) -> f64| {
        secs_per_op(|| {
            let mut acc = 0.0;
            for _ in 0..rounds {
                for &x in &args {
                    acc += f(black_box(x));
                }
            }
            black_box(acc);
            (rounds * args.len()) as u64
        }) * 1e9
    };
    ctx.out.insert("sw-math.exp_fast_ns", time(exp_fast::<f64>));
    ctx.out
        .insert("sw-math.exp_accurate_ns", time(exp_accurate::<f64>));
}

/// A patch, its ghosted input field and the tile assignment the scheduler
/// would compile for it (`choose_tile_shape` -> `tiles_of` ->
/// `assign_tiles` on the calibrated machine).
struct PatchFixture {
    patch: Dims3,
    ghosted: Dims3,
    input: Vec<f64>,
    assignment: Vec<Vec<TileDesc>>,
    ldm_bytes: usize,
}

impl PatchFixture {
    fn new(patch: Dims3) -> PatchFixture {
        let cfg = MachineConfig::sw26010();
        let shape = choose_tile_shape(
            patch,
            &InOutFootprint { ghost: 1 },
            cfg.ldm_bytes,
            cfg.cpes_per_cg,
        )
        .expect("a tile of the probe patch fits the LDM");
        let ghosted = (patch.0 + 2, patch.1 + 2, patch.2 + 2);
        PatchFixture {
            patch,
            ghosted,
            input: (0..ghosted.0 * ghosted.1 * ghosted.2)
                .map(|i| 0.5 + 0.3 * (i as f64 * 0.01).sin())
                .collect(),
            assignment: assign_tiles(&tiles_of(patch, shape), cfg.cpes_per_cg),
            ldm_bytes: cfg.ldm_bytes,
        }
    }

    fn cells(&self) -> usize {
        self.patch.0 * self.patch.1 * self.patch.2
    }

    /// Bytes staged through the LDM for one execution, computed from the
    /// tile shapes: each tile's ghosted input in, its interior out.
    fn staged_bytes(&self) -> u64 {
        let tile = |t: &TileDesc| {
            let d = t.dims;
            ((d.0 + 2) * (d.1 + 2) * (d.2 + 2) + d.0 * d.1 * d.2) as u64 * 8
        };
        self.assignment.iter().flatten().map(tile).sum()
    }

    fn run(&self, policy: ExecPolicy, kernel: &dyn CpeTileKernel, out: &mut [f64]) {
        run_patch_functional_with(
            policy,
            kernel,
            Field3 {
                data: &self.input,
                dims: self.ghosted,
            },
            &mut Field3Mut {
                data: out,
                dims: self.patch,
            },
            (0, 0, 0),
            &self.assignment,
            self.ldm_bytes,
            &[0.01, 1e-5],
        )
        .expect("the probe working set fits the LDM");
    }
}

/// The patch of the `functional-burgers` fast-exp group (full SIMD rows).
fn burgers_patch(ctx: &ProbeCtx<'_>) -> Dims3 {
    match ctx.size {
        Size::Full => (32, 32, 36),
        Size::Quick => (8, 8, 6),
    }
}

/// `burgers`: cells per second of the scalar and the SIMD kernel through
/// the serial tile executor, on the `functional-burgers` patch shape, and
/// their ratio. The two must agree bit for bit.
pub fn burgers(ctx: &mut ProbeCtx<'_>) {
    let fx = PatchFixture::new(burgers_patch(ctx));
    let geom = Geometry::new(1.0 / 64.0, 1.0 / 64.0, 1.0 / 72.0);
    let scalar = BurgersScalarKernel {
        geom,
        exp: ExpKind::Fast,
    };
    let simd = BurgersSimdKernel {
        geom,
        exp: ExpKind::Fast,
    };
    let runs = ctx.iters(8);
    let (mut a, mut b) = (vec![0.0; fx.cells()], vec![f64::NAN; fx.cells()]);
    let rate = |kernel: &dyn CpeTileKernel, out: &mut [f64]| {
        1.0 / secs_per_op(|| {
            for _ in 0..runs {
                fx.run(ExecPolicy::Serial, kernel, out);
            }
            (runs * fx.cells()) as u64
        })
    };
    let scalar_rate = rate(&scalar, &mut a);
    let simd_rate = rate(&simd, &mut b);
    ctx.checks.check(
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
        || "burgers probe: scalar and SIMD kernels disagree".to_string(),
    );
    ctx.out.insert("burgers.scalar_cells_per_s", scalar_rate);
    ctx.out.insert("burgers.simd_cells_per_s", simd_rate);
    ctx.out
        .insert("burgers.simd_over_scalar", simd_rate / scalar_rate);
}

/// A kernel that only copies the cell: what is left is tile staging.
struct CopyKernel;

impl CpeTileKernel for CopyKernel {
    fn ghost(&self) -> usize {
        1
    }
    fn compute(&self, ctx: &mut TileCtx<'_>) {
        let d = ctx.tile.dims;
        for z in 0..d.2 {
            for y in 0..d.1 {
                for x in 0..d.0 {
                    ctx.out_at(x, y, z, ctx.in_at(x, y, z, 0, 0, 0));
                }
            }
        }
    }
}

/// `sw-athread`: tile staging bandwidth (a copy kernel through the tile
/// executor, bytes computed from the tile shapes), the cost of compiling a
/// tile plan, the cost of one `kernel_timing` evaluation (Model mode's
/// per-shape work), and the 2-thread executor against the serial one.
pub fn sw_athread(ctx: &mut ProbeCtx<'_>) {
    let patch = burgers_patch(ctx);
    let fx = PatchFixture::new(patch);
    let cfg = MachineConfig::sw26010();
    let runs = ctx.iters(40);
    let mut out = vec![0.0; fx.cells()];
    let mut staging = |policy: ExecPolicy| {
        secs_per_op(|| {
            for _ in 0..runs {
                fx.run(policy, &CopyKernel, &mut out);
            }
            runs as u64
        })
    };
    let serial = staging(ExecPolicy::Serial);
    ctx.out.insert(
        "sw-athread.tile_staging_gb_per_s",
        fx.staged_bytes() as f64 / serial / 1e9,
    );
    if host::nproc() >= 2 {
        let parallel = staging(ExecPolicy::Parallel { threads: 2 });
        ctx.out
            .insert("sw-athread.parallel_over_serial", serial / parallel);
    }

    let plans = ctx.iters(200);
    let fp = InOutFootprint { ghost: 1 };
    ctx.out.insert(
        "sw-athread.tile_plan_us",
        secs_per_op(|| {
            for _ in 0..plans {
                let shape =
                    choose_tile_shape(black_box(patch), &fp, cfg.ldm_bytes, cfg.cpes_per_cg)
                        .expect("fits");
                black_box(assign_tiles(&tiles_of(patch, shape), cfg.cpes_per_cg));
            }
            plans as u64
        }) * 1e6,
    );
    let timings = ctx.iters(2000);
    let cost = BurgersCost { exp: ExpKind::Fast };
    let rate = KernelRate::scalar(&cfg);
    ctx.out.insert(
        "sw-athread.kernel_timing_ns",
        secs_per_op(|| {
            for _ in 0..timings {
                black_box(kernel_timing(&cfg, black_box(&fx.assignment), &cost, rate));
            }
            timings as u64
        }) * 1e9,
    );
}

/// The rayon stand-in: microseconds for one `scope` that spawns two empty
/// tasks (it starts and joins two OS threads; PDES pays this per window,
/// the parallel executor per offload).
pub fn rayon_shim(ctx: &mut ProbeCtx<'_>) {
    let scopes = ctx.iters(500);
    ctx.out.insert(
        "rayon.scope_spawn_us",
        secs_per_op(|| {
            for _ in 0..scopes {
                rayon::scope(|s| {
                    s.spawn(|| black_box(1));
                    s.spawn(|| black_box(2));
                });
            }
            scopes as u64
        }) * 1e6,
    );
}
