//! Probes of the runtime: `core` (plan compile, balancers, canonical
//! lines, warehouse, the virtual-clock METG) and `analyze`.

use std::hint::black_box;
use std::sync::Arc;

use burgers::BurgersApp;
use sw_math::ExpKind;
use sw_sim::MachineConfig;
use uintah_core::grid::iv;
use uintah_core::task::build_rank_plan;
use uintah_core::{
    prove_lookahead_for_plans, verify_plans, CcVar, CommConfig, DataWarehouse, ExecMode, IntVec,
    Level, LoadBalancer, Region, RunConfig, SchedulerOptions, Simulation, Variant,
};

use super::{secs_per_op, ProbeCtx};
use crate::workloads::{extension_layouts, Size, BALANCERS, EXTENSION_PATCH, PAPER_LAYOUT};

/// `core`: what `Simulation::new` and the services above it pay per rank,
/// per level and per job line, and the warehouse's put/get/take cycle.
pub fn core(ctx: &mut ProbeCtx<'_>) {
    let (level, ranks) = match ctx.size {
        Size::Full => (
            Level::new(EXTENSION_PATCH, extension_layouts(Size::Full)[0]),
            256,
        ),
        Size::Quick => (
            Level::new(EXTENSION_PATCH, extension_layouts(Size::Quick)[0]),
            16,
        ),
    };
    let assignment = LoadBalancer::Block.assign(&level, ranks);
    ctx.out.insert(
        "core.plan_compile_us_per_rank",
        secs_per_op(|| {
            for r in 0..ranks {
                black_box(build_rank_plan(&level, &assignment, r, 1));
            }
            ranks as u64
        }) * 1e6,
    );
    let rounds = ctx.iters(50);
    ctx.out.insert(
        "core.lb_assign_us",
        secs_per_op(|| {
            for _ in 0..rounds {
                for lb in BALANCERS {
                    black_box(lb.assign(&level, ranks));
                }
            }
            (rounds * BALANCERS.len()) as u64
        }) * 1e6,
    );

    // Canonical lines: render a config, parse it back, compare.
    let configs: Vec<RunConfig> = (0..8)
        .map(|i| {
            let mut cfg = RunConfig::paper(Variant::TABLE_IV[i % 5], ExecMode::Model, 8 << (i % 4));
            cfg.lb = BALANCERS[i % 4];
            cfg.noise_frac = 0.02 * (i % 2) as f64;
            cfg.noise_seed = i as u64;
            cfg.comm = CommConfig {
                endpoints: 1 + (i % 4) as u32,
                ..CommConfig::default()
            };
            cfg
        })
        .collect();
    let rounds = ctx.iters(400);
    let mut round_trips = true;
    let line_s = secs_per_op(|| {
        for _ in 0..rounds {
            for cfg in &configs {
                let line = cfg.to_string();
                round_trips &= line.parse::<RunConfig>().is_ok_and(|back| back == *cfg);
            }
        }
        (rounds * configs.len()) as u64
    });
    ctx.checks.check(round_trips, || {
        "core probe: a canonical line did not parse back to its config".to_string()
    });
    ctx.out.insert("core.canon_lines_per_s", 1.0 / line_s);

    // Warehouse: put, get and take of 64 small variables.
    let region = Region::of_extent(iv(4, 4, 4));
    let mut vars: Vec<Option<CcVar>> = (0..64).map(|_| Some(CcVar::new(region))).collect();
    let mut dw = DataWarehouse::new();
    let rounds = ctx.iters(2000);
    let op_s = secs_per_op(|| {
        for _ in 0..rounds {
            for (p, v) in vars.iter_mut().enumerate() {
                dw.put(0, p, v.take().expect("taken back last round"));
            }
            for p in 0..vars.len() {
                black_box(dw.get(0, p));
            }
            for (p, v) in vars.iter_mut().enumerate() {
                *v = dw.take(0, p);
            }
        }
        (rounds * vars.len() * 3) as u64
    });
    ctx.out.insert("core.dw_put_get_mops", 1e-6 / op_s);

    ctx.out
        .insert("core.metg_async_cells", metg_async_cells(ctx.size));
}

/// Minimum effective task granularity of the modelled asynchronous
/// scheduler, on the virtual clock: the smallest patch (in cells) of a
/// fixed ladder on which acc.async still reaches half the flop rate it
/// reaches on the largest. 128 patches on 8 CGs, Model mode; exact.
fn metg_async_cells(size: Size) -> f64 {
    let ladder: &[IntVec] = &[
        iv(16, 16, 512),
        iv(16, 16, 128),
        iv(16, 16, 32),
        iv(16, 16, 8),
        iv(8, 8, 8),
        iv(4, 4, 8),
        iv(4, 4, 2),
        iv(2, 2, 2),
    ];
    let steps = if size == Size::Full { 3 } else { 1 };
    let rates: Vec<(f64, f64)> = ladder
        .iter()
        .map(|&patch| {
            let level = Level::new(patch, PAPER_LAYOUT);
            let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
            let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, 8);
            cfg.steps = steps;
            let report = Simulation::new(level, app, cfg).run();
            (patch.volume() as f64, report.gflops())
        })
        .collect();
    let peak = rates.iter().map(|r| r.1).fold(0.0, f64::max);
    rates
        .iter()
        .filter(|r| r.1 >= 0.5 * peak)
        .map(|r| r.0)
        .fold(f64::INFINITY, f64::min)
}

/// `analyze`: the static schedule verifier per task and the lookahead
/// proof per channel, on the plans of 16x16x512 at 16 CGs.
pub fn analyze(ctx: &mut ProbeCtx<'_>) {
    let level = Level::new(iv(16, 16, 512), PAPER_LAYOUT);
    let machine = MachineConfig::sw26010();
    let ranks = 16;
    let assignment = LoadBalancer::Block.assign(&level, ranks);
    let plans: Vec<_> = (0..ranks)
        .map(|r| build_rank_plan(&level, &assignment, r, 1))
        .collect();
    let options = SchedulerOptions::default();
    let mut findings = 0;
    let mut tasks = 1;
    let verify_s = secs_per_op(|| {
        let report = verify_plans(
            "swbench",
            &level,
            &plans,
            1,
            1,
            Variant::ACC_ASYNC,
            &options,
            &machine,
        );
        findings = report.errors();
        tasks = report.n_tasks.max(1);
        tasks as u64
    });
    ctx.out.insert("analyze.verify_us_per_task", verify_s * 1e6);
    let rounds = ctx.iters(20);
    let mut unsafe_channels = 0;
    let proof_s = secs_per_op(|| {
        let mut channels = 0;
        for _ in 0..rounds {
            let (proof, found) = prove_lookahead_for_plans(&plans, &machine, machine.net_latency.0);
            channels += proof.channels.len();
            unsafe_channels = found.len();
        }
        channels as u64
    });
    ctx.out
        .insert("analyze.lookahead_proof_us_per_channel", proof_s * 1e6);
    *ctx.out.entry("analyze.findings").or_insert(0.0) += (findings + unsafe_channels) as f64;
}
