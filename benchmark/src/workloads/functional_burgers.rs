//! `functional-burgers`: real numerics on 4 CGs, one thread.
//!
//! Functional mode under `ExecPolicy::Serial`, ten steps on eight patches:
//! Burgers as sync/async x scalar/SIMD with the fast exp on 32x32x36-cell
//! patches (16x16x4 tiles, full SIMD rows), twice more with the accurate
//! exp on 34x32x30 (x divides by 2 only, so tiles are 2 wide and the SIMD
//! kernel runs nothing but its scalar tail), one 3-stage split-heat run
//! and one advection run on 31x29x16 (odd extents: `choose_tile_shape`
//! tries power-of-two divisors only and falls back to 1x1x4-cell tiles, so
//! these two runs are tile staging and little else), and one 2-level
//! `sw-amr` Burgers run that regrids every five steps. `sw-math` exp, the
//! `burgers` kernels, `sw-athread` tile staging and the warehouse
//! dominate; each simulation is a few hundred events, so a change to the
//! event engine must not move this workload.
//!
//! The patch extents are fixed: host time differs 4x between these shapes
//! and virtual time by a quarter, so extents drawn from the seed would
//! drown the run-to-run spread. The seed picks the physical origin of the
//! domain, which shifts the initial field under the grid, the seed of the
//! 2 % kernel noise every run carries (it moves the virtual clock, never
//! the numerics), and the seed of the AMR dilation.

use std::sync::Arc;

use apps::{AdvectionApp, SplitHeatApp};
use burgers::{BurgersAmr, BurgersApp};
use sw_amr::{AmrConfig, AmrSimulation, RegridPolicy};
use sw_math::ExpKind;
use uintah_core::grid::iv;
use uintah_core::{Application, ExecMode, IntVec, Level, RunConfig, Simulation, Variant};

use super::{Size, Workload};
use crate::rep::{fold, Rep, FNV_OFFSET};
use crate::rng::Rng;

/// Ranks (CGs) of every run.
const RANKS: usize = 4;
/// Patch layout of the single-level runs.
const LAYOUT: IntVec = iv(2, 2, 2);
/// L-infinity error allowed against the exact solution, per application.
/// The coarsest grids the generator can draw stay below half of these.
const BURGERS_TOLERANCE: f64 = 0.02;
const HEAT_TOLERANCE: f64 = 0.02;
const ADVECTION_TOLERANCE: f64 = 0.12;
const AMR_TOLERANCE: f64 = 0.1;
/// Thermal diffusivity of the heat run.
const ALPHA: f64 = 0.1;

/// The generated inputs.
pub struct FunctionalBurgers {
    /// Patch extents: full SIMD rows, SIMD tails only, 1-wide tiles.
    patches: [IntVec; 3],
    origin: [f64; 3],
    noise_seed: u64,
    steps: u32,
    /// Factor on the error tolerances: the `--quick` grids are coarse.
    tolerance_scale: f64,
    amr_root: (IntVec, IntVec),
    amr_steps: u32,
    amr_seed: u64,
}

impl FunctionalBurgers {
    /// Generate the inputs for `seed`.
    pub fn generate(seed: u64, size: Size) -> FunctionalBurgers {
        let mut rng = Rng::new(seed, 2);
        let full = size == Size::Full;
        FunctionalBurgers {
            patches: if full {
                [iv(32, 32, 36), iv(34, 32, 30), iv(31, 29, 16)]
            } else {
                [iv(8, 8, 6), iv(6, 8, 5), iv(7, 5, 4)]
            },
            origin: [0.25 * rng.unit(), 0.25 * rng.unit(), 0.25 * rng.unit()],
            noise_seed: rng.next_u64(),
            steps: if full { 10 } else { 2 },
            tolerance_scale: if full { 1.0 } else { 5.0 },
            amr_root: (iv(4, 4, 4), if full { iv(4, 4, 4) } else { iv(2, 2, 2) }),
            amr_steps: if full { 30 } else { 4 },
            amr_seed: rng.next_u64(),
        }
    }

    fn level(&self, patch: IntVec) -> Level {
        let o = self.origin;
        Level::with_domain(patch, LAYOUT, o, [o[0] + 1.0, o[1] + 1.0, o[2] + 1.0])
    }

    /// One functional run; returns the digest of its final field and
    /// whether every check on it held.
    fn run(
        &self,
        rep: &mut Rep<'_>,
        level: &Level,
        app: Arc<dyn Application>,
        variant: Variant,
        tolerance: f64,
        exact: impl Fn(&Level, IntVec, f64) -> f64,
    ) -> (u64, bool) {
        let mut cfg = RunConfig::paper(variant, ExecMode::Functional, RANKS);
        cfg.steps = self.steps;
        cfg.noise_frac = 0.02;
        cfg.noise_seed = self.noise_seed;
        let what = format!("{} {}", app.name(), variant.name());
        let kernels = level.n_patches() as u64 * u64::from(self.steps) * app.stages() as u64;
        let run = rep.run_sim(level.clone(), app, cfg);
        let digest = solution_digest(&run.sim);
        rep.fold(&[digest]);
        let mut ok = run.ok
            & rep.checks.check(run.report.kernels == kernels, || {
                format!("{what}: {} kernels, not {kernels}", run.report.kernels)
            });
        if rep.reference {
            let err = linf_error(&run.sim, exact);
            rep.reference_max("burgers.linf_error", err);
            let tolerance = tolerance * self.tolerance_scale;
            ok &= rep.checks.check(err < tolerance, || {
                format!("{what}: L-inf error {err} above {tolerance}")
            });
        }
        (digest, ok)
    }

    /// Burgers under each of `variants`; all must end on the same bits.
    fn burgers_group(&self, rep: &mut Rep<'_>, patch: IntVec, exp: ExpKind, variants: &[Variant]) {
        let level = self.level(patch);
        let mut runs = Vec::new();
        for &variant in variants {
            let app = Arc::new(BurgersApp::new(&level, exp));
            let exact_app = Arc::clone(&app);
            let dims = (patch.x as usize, patch.y as usize, patch.z as usize);
            let exp_calls =
                app.cost().exp_calls(dims) * level.n_patches() as u64 * u64::from(self.steps);
            rep.add("sw-math.exp_calls", exp_calls as f64);
            runs.push(self.run(
                rep,
                &level,
                app,
                variant,
                BURGERS_TOLERANCE,
                move |l, c, t| exact_app.exact_at(l, c, t),
            ));
        }
        // Scalar and SIMD kernels, synchronous and asynchronous schedulers:
        // one field, bit for bit.
        let same = runs.iter().all(|r| r.0 == runs[0].0);
        rep.checks.check(same, || {
            format!("burgers {exp:?}: variants disagree on the final field: {runs:x?}")
        });
        for (_, ok) in runs {
            rep.finish_sim(ok && same);
        }
    }

    fn amr(&self, rep: &mut Rep<'_>) {
        let (patch, layout) = self.amr_root;
        let root = Level::new(patch, layout);
        let mut cfg = AmrConfig::basic(Variant::ACC_SIMD_ASYNC, RANKS);
        cfg.steps = self.amr_steps;
        cfg.policy = RegridPolicy {
            max_levels: 2,
            ratio: 2,
            flag_threshold: 0.12,
            regrid_every: (self.amr_steps / 6).max(2),
            regrid_frac: 0.3,
            seed: self.amr_seed,
        };
        let job = rep.job();
        let family = Arc::new(BurgersAmr::new(ExpKind::Fast));
        let (amr, stats) = rep.tr.span("amr.run", job, |_| {
            let mut amr = AmrSimulation::new(root.clone(), family, cfg);
            let stats = amr.run();
            (amr, stats)
        });
        // Cell updates a uniformly fine (ratio 2) grid would have made.
        let fine_updates = root.grid().cells() as f64 * 8.0 * f64::from(stats.steps);
        rep.add("amr.regrids", f64::from(stats.regrids));
        rep.add("amr.recompiles", stats.recompiles as f64);
        rep.add(
            "amr.cell_update_frac",
            stats.cell_updates as f64 / fine_updates,
        );
        rep.add(
            "analyze.findings",
            (stats.verify_errors + stats.lookahead_violations) as f64,
        );
        let bits: Vec<u64> = amr.solution_bits().into_iter().flatten().collect();
        rep.fold(&bits);
        rep.fold(&[
            stats.cell_updates,
            stats.recompiles,
            u64::from(stats.regrids),
        ]);
        let mut ok = rep.checks.check(
            stats.steps == self.amr_steps
                && stats.regrids >= 1
                && stats.verify_errors == 0
                && stats.lookahead_violations == 0
                && stats.verified_clean == stats.recompiles,
            || format!("amr: regrid or verification counters off: {stats:?}"),
        );
        if rep.reference {
            let err = amr.max_error().into_iter().fold(0.0, f64::max);
            ok &= rep
                .checks
                .check(err < AMR_TOLERANCE * self.tolerance_scale, || {
                    format!("amr: composite error {err}")
                });
        }
        rep.finish_sim(ok);
    }
}

/// Fingerprint of a functional run's final field, every patch, bit for bit.
fn solution_digest(sim: &Simulation) -> u64 {
    let level = sim.level();
    let mut h = FNV_OFFSET;
    for p in 0..level.n_patches() {
        let var = sim.solution(p);
        for c in level.patch(p).region.iter() {
            h = fold(h, &[var.get(c).to_bits()]);
        }
    }
    h
}

/// L-infinity distance of the final field from `exact(cell, t_final)`.
fn linf_error(sim: &Simulation, exact: impl Fn(&Level, IntVec, f64) -> f64) -> f64 {
    let (level, t) = (sim.level(), sim.final_time());
    let mut linf = 0.0f64;
    for p in 0..level.n_patches() {
        let var = sim.solution(p);
        for c in level.patch(p).region.iter() {
            linf = linf.max((var.get(c) - exact(level, c, t)).abs());
        }
    }
    linf
}

impl Workload for FunctionalBurgers {
    fn inputs_digest(&self) -> u64 {
        fold(
            self.amr_seed,
            &[
                self.noise_seed,
                self.origin[0].to_bits(),
                self.origin[1].to_bits(),
                self.origin[2].to_bits(),
                u64::from(self.steps),
            ],
        )
    }

    fn repetition(&self, rep: &mut Rep<'_>) {
        let [aligned, tails, odd] = self.patches;
        self.burgers_group(rep, aligned, ExpKind::Fast, &Variant::TABLE_IV[1..]);
        self.burgers_group(
            rep,
            tails,
            ExpKind::Accurate,
            &[Variant::ACC_ASYNC, Variant::ACC_SIMD_ASYNC],
        );
        let level = self.level(odd);
        let heat = Arc::new(SplitHeatApp::new(&level, ALPHA));
        let (_, ok) = self.run(
            rep,
            &level,
            heat,
            Variant::ACC_ASYNC,
            HEAT_TOLERANCE,
            |l, c, t| {
                let (x, y, z) = l.cell_center(c);
                apps::heat_exact(ALPHA, x, y, z, t)
            },
        );
        rep.finish_sim(ok);
        let advection = Arc::new(AdvectionApp::new(&level));
        let exact_app = Arc::clone(&advection);
        let (_, ok) = self.run(
            rep,
            &level,
            advection,
            Variant::ACC_SYNC,
            ADVECTION_TOLERANCE,
            move |l, c, t| exact_app.exact_at(l, c, t),
        );
        rep.finish_sim(ok);
        self.amr(rep);
    }
}
