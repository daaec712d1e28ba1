//! `model-scale`: the paper's strong-scaling sweep, Model mode, one thread.
//!
//! Table III problems {16x16x512, 32x64x512, 128x128x512} x {acc.sync,
//! acc.async, acc_simd.async} x 8..128 CGs, plus the 1024-patch extension
//! problem x {sync, async} at 256 and 1024 CGs. No field data exists in
//! Model mode, so the `sw-sim` queue, `sw-mpi` default-path matching and the
//! `core` scheduler and plan compile do nearly all the host work.
//!
//! Every second (problem, CGs) group runs with 2 % kernel noise; the seed
//! picks the noise seeds and the extension layout. The balancer rotates
//! over the groups in a fixed pattern, and so does the noise: a balancer's
//! effect on host time (3x between round-robin and Morton at 16 CGs) would
//! swamp the run-to-run spread the benchmark has to stay under, and
//! letting the seed choose which groups are noisy moved `virt_step_s` by a
//! third of a percent, a third of its bound.
//! Sync and async cells of one group share balancer and noise, so their
//! difference is the scheduler's alone.

use std::sync::Arc;

use burgers::BurgersApp;
use sw_math::ExpKind;
use uintah_core::grid::iv;
use uintah_core::{ExecMode, IntVec, Level, RunConfig, Variant};

use super::{extension_layouts, Size, Workload, BALANCERS, EXTENSION_PATCH, PAPER_LAYOUT};
use crate::rep::{fold, Rep};
use crate::rng::Rng;

const PAPER_VARIANTS: [Variant; 3] = [
    Variant::ACC_SYNC,
    Variant::ACC_ASYNC,
    Variant::ACC_SIMD_ASYNC,
];
const EXT_VARIANTS: [Variant; 2] = [Variant::ACC_SYNC, Variant::ACC_ASYNC];

/// Cells of one (problem, CGs) pair: every variant under one balancer and
/// one noise setting.
struct Group {
    patch: IntVec,
    layout: IntVec,
    cgs: usize,
    lb: usize,
    noise_seed: Option<u64>,
    extension: bool,
    variants: &'static [Variant],
}

/// The generated sweep.
pub struct ModelScale {
    groups: Vec<Group>,
    steps: u32,
}

impl ModelScale {
    /// Generate the sweep for `seed`.
    pub fn generate(seed: u64, size: Size) -> ModelScale {
        let mut rng = Rng::new(seed, 1);
        let (patches, cg_axis, ext_axis, steps): (&[IntVec], &[usize], &[usize], u32) = match size {
            Size::Full => (
                &[iv(16, 16, 512), iv(32, 64, 512), iv(128, 128, 512)],
                &[8, 16, 32, 64, 128],
                &[256, 1024],
                10,
            ),
            Size::Quick => (&[iv(16, 16, 512)], &[8, 32], &[16, 64], 3),
        };
        let mut groups = Vec::new();
        for (pi, &patch) in patches.iter().enumerate() {
            for (ci, &cgs) in cg_axis.iter().enumerate() {
                groups.push(Group {
                    patch,
                    layout: PAPER_LAYOUT,
                    cgs,
                    lb: (pi + ci) % BALANCERS.len(),
                    noise_seed: None,
                    extension: false,
                    variants: &PAPER_VARIANTS,
                });
            }
        }
        let layout = *rng.pick(&extension_layouts(size));
        for &cgs in ext_axis {
            groups.push(Group {
                patch: EXTENSION_PATCH,
                layout,
                cgs,
                lb: 0,
                noise_seed: None,
                extension: true,
                variants: &EXT_VARIANTS,
            });
        }
        for g in groups.iter_mut().skip(1).step_by(2) {
            g.noise_seed = Some(rng.next_u64());
        }
        ModelScale { groups, steps }
    }
}

impl Workload for ModelScale {
    fn inputs_digest(&self) -> u64 {
        self.groups.iter().fold(u64::from(self.steps), |h, g| {
            fold(
                h,
                &[
                    g.patch.x as u64,
                    g.patch.y as u64,
                    g.patch.z as u64,
                    g.layout.x as u64,
                    g.layout.y as u64,
                    g.layout.z as u64,
                    g.cgs as u64,
                    g.lb as u64,
                    g.noise_seed.map_or(0, |s| s | 1),
                ],
            )
        })
    }

    fn repetition(&self, rep: &mut Rep<'_>) {
        // (sync, async) virtual time per step of every group, and the
        // acc.async row of the smallest paper problem for the scaling
        // efficiency.
        let (mut gain, mut gain_n, mut ext_gain, mut ext_gain_n) = (0.0, 0u32, 0.0, 0u32);
        let mut small_async: Vec<(usize, f64)> = Vec::new();
        for (gi, g) in self.groups.iter().enumerate() {
            let level = Level::new(g.patch, g.layout);
            let mut tps = Vec::new();
            for &variant in g.variants {
                let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
                let mut cfg = RunConfig::paper(variant, ExecMode::Model, g.cgs);
                cfg.steps = self.steps;
                cfg.lb = BALANCERS[g.lb];
                if let Some(seed) = g.noise_seed {
                    cfg.noise_frac = 0.02;
                    cfg.noise_seed = seed;
                }
                let run = rep.run_sim(level.clone(), app, cfg);
                let r = &run.report;
                let ok = run.ok
                    & rep.checks.check(
                        r.steps == self.steps
                            && r.step_end.len() == self.steps as usize
                            && r.events > 0
                            && r.kernels == level.n_patches() as u64 * u64::from(self.steps),
                        || format!("group {gi} {}: incomplete run {r:?}", variant.name()),
                    );
                rep.finish_sim(ok);
                tps.push((variant, r.time_per_step().as_secs_f64()));
            }
            let of = |v: Variant| tps.iter().find(|(w, _)| *w == v).map(|&(_, t)| t);
            if let (Some(sync), Some(asyn)) = (of(Variant::ACC_SYNC), of(Variant::ACC_ASYNC)) {
                let improvement = (sync - asyn) / asyn;
                if g.extension {
                    ext_gain += improvement;
                    ext_gain_n += 1;
                } else {
                    gain += improvement;
                    gain_n += 1;
                }
                if !g.extension && g.patch == self.groups[0].patch {
                    small_async.push((g.cgs, asyn));
                }
            }
        }
        rep.add("core.async_gain", gain / f64::from(gain_n.max(1)));
        rep.add(
            "core.async_gain_ext1024p",
            ext_gain / f64::from(ext_gain_n.max(1)),
        );
        if let (Some(&(n0, t0)), Some(&(n1, t1))) = (small_async.first(), small_async.last()) {
            // Strong-scaling efficiency of the widest run against the
            // narrowest: (T0 * N0) / (T1 * N1).
            let eff = (t0 * n0 as f64) / (t1 * n1 as f64);
            rep.add("core.scaling_eff_128cg", eff);
            rep.checks.check(n1 > n0 && t1 < t0, || {
                format!("no strong scaling: {t0} s at {n0} CGs, {t1} s at {n1} CGs")
            });
        }
    }
}
