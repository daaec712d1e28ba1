//! Probes of the service layers: `telemetry`, `resilience` and the
//! `campaign` result store.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use burgers::BurgersApp;
use sw_campaign::ResultStore;
use sw_math::ExpKind;
use sw_resilience::{Checkpoint, FaultConfig, FaultPlan, MsgKey, OffloadKey, PatchRecord};
use sw_telemetry::{analyze, perfetto, Event, Lane, Recorder};
use uintah_core::grid::iv;
use uintah_core::task::build_rank_plan;
use uintah_core::{race_check, Application, ExecMode, Level, RunConfig, Simulation, Variant};

use super::engine::engine_ratio;
use super::{median_of_batches, secs_per_op, ProbeCtx};
use crate::workloads::{Size, PAPER_LAYOUT};

/// `telemetry`: the recorder's append path, what switching it on costs a
/// Model run, and its three consumers over one fixed trace (16x16x512 on
/// 16 CGs, asynchronous scheduler).
pub fn telemetry(ctx: &mut ProbeCtx<'_>) {
    let events = ctx.iters(200_000);
    let record_s = secs_per_op(|| {
        let rec = Recorder::new(4);
        for i in 0..events {
            rec.record(i % 4, i as u64, Lane::Mpe, Event::Mark { tag: "probe" });
        }
        black_box(rec.len());
        events as u64
    });
    ctx.out.insert("telemetry.record_mops", 1e-6 / record_s);
    let on_over_off = engine_ratio(ctx, "telemetry", (false, None, true), (false, None, false));
    ctx.out.insert("telemetry.on_over_off", on_over_off);

    let level = Level::new(iv(16, 16, 512), PAPER_LAYOUT);
    let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
    let ranks = 16;
    let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, ranks);
    cfg.steps = if ctx.size == Size::Full { 5 } else { 1 };
    cfg.options.telemetry = true;
    let mut sim = Simulation::new(level, app.clone(), cfg);
    sim.run();
    let snap = sim.recorder().snapshot();
    let records: usize = snap.iter().map(Vec::len).sum();
    let analyze_s = secs_per_op(|| {
        black_box(analyze(&snap));
        records as u64
    });
    ctx.out
        .insert("telemetry.analyze_mrec_per_s", 1e-6 / analyze_s);
    let byte_s = secs_per_op(|| black_box(perfetto::export(&snap)).len() as u64);
    ctx.out.insert("telemetry.perfetto_mb_per_s", 1e-6 / byte_s);
    let plans: Vec<_> = (0..ranks)
        .map(|r| build_rank_plan(sim.level(), sim.assignment(), r, app.ghost()))
        .collect();
    let mut clean = true;
    let race_s = secs_per_op(|| {
        clean &= race_check(&snap, sim.level(), &plans, app.stages()).is_clean();
        records as u64
    });
    ctx.checks.check(clean, || {
        "telemetry probe: race check of the fixed trace is not clean".to_string()
    });
    ctx.out
        .insert("telemetry.race_check_us_per_record", race_s * 1e6);
}

/// Wall seconds of a small functional run (16^3-cell patches, 4 ranks)
/// with or without the standard fault preset.
fn functional_run_s(steps: u32, faults: Option<FaultConfig>) -> f64 {
    let level = Level::new(iv(16, 16, 16), iv(2, 2, 1));
    let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
    let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 4);
    cfg.steps = steps;
    cfg.options.faults = faults;
    let t = Instant::now();
    black_box(Simulation::new(level, app, cfg).run());
    t.elapsed().as_secs_f64()
}

/// `resilience`: keyed fault draws, checkpoint write and read of a 2 MB
/// warehouse (the write includes the `sync_all` the library does), and a
/// functional run under the standard fault preset against a clean one.
pub fn resilience(ctx: &mut ProbeCtx<'_>) {
    let plan = FaultPlan::new(FaultConfig::standard(1));
    let draws = ctx.iters(100_000) as u64;
    let draw_s = secs_per_op(|| {
        let mut hits = 0u64;
        for i in 0..draws {
            let msg = MsgKey {
                src: (i % 64) as u32,
                dst: ((i + 1) % 64) as u32,
                tag: i,
                attempt: 0,
            };
            let slot = OffloadKey {
                rank: (i % 64) as u32,
                patch: i,
                stage: 0,
                step: (i % 10) as u32,
                attempt: 0,
            };
            hits += u64::from(plan.msg_fault(&msg).is_some());
            hits += u64::from(plan.slot_fault(&slot).is_some());
        }
        black_box(hits);
        2 * draws
    });
    ctx.out.insert("resilience.fault_draws_per_s", 1.0 / draw_s);

    let n_patches = if ctx.size == Size::Full { 64 } else { 4 };
    let ckpt = Checkpoint {
        step: 5,
        t_ps: 1_000_000,
        n_ranks: 4,
        patches: (0..n_patches)
            .map(|p| PatchRecord {
                patch: p,
                rank: p % 4,
                label: 0,
                lo: [0, 0, 16 * p as i64],
                hi: [16, 16, 16 * (p as i64 + 1)],
                data: (0..4096u64)
                    .map(|i| (i as f64 * 0.5 + p as f64).to_bits())
                    .collect(),
            })
            .collect(),
        amr: None,
    };
    let path = ctx.scratch.join("probe.ckpt");
    let mut io_ok = true;
    let write_s = secs_per_op(|| match ckpt.write_to(&path) {
        Ok(bytes) => bytes,
        Err(_) => {
            io_ok = false;
            1
        }
    });
    let read_s = secs_per_op(|| match Checkpoint::read_from(&path) {
        Ok(back) => {
            io_ok &= back == ckpt;
            back.payload_bytes()
        }
        Err(_) => {
            io_ok = false;
            1
        }
    });
    let _ = std::fs::remove_file(&path);
    ctx.checks.check(io_ok, || {
        "resilience probe: checkpoint did not round-trip through the file".to_string()
    });
    ctx.out
        .insert("resilience.ckpt_write_mb_per_s", 1e-6 / write_s);
    ctx.out
        .insert("resilience.ckpt_read_mb_per_s", 1e-6 / read_s);

    let steps = if ctx.size == Size::Full { 4 } else { 1 };
    ctx.out.insert(
        "resilience.faulted_over_clean",
        median_of_batches(|| {
            functional_run_s(steps, Some(FaultConfig::standard(7))) / functional_run_s(steps, None)
        }),
    );
}

/// `campaign`: puts into an on-disk result store, and gets through a
/// freshly opened one (so they are answered from the files).
pub fn campaign_store(ctx: &mut ProbeCtx<'_>) {
    let n = ctx.iters(256).max(8) as u128;
    let dir = ctx.scratch.join("probe-store");
    let canon = |k: u128| format!("probe-job-{k}");
    let record = "steps=10 total_ps=123456789 step_end=1,2,3 flops=1 messages=2 net_bytes=3 \
                  kernels=4 events=5 bits=-";
    let mut ok = true;
    let put_s = secs_per_op(|| {
        let _ = std::fs::remove_dir_all(&dir);
        let Ok(mut store) = ResultStore::on_disk(&dir) else {
            ok = false;
            return 1;
        };
        for k in 0..n {
            ok &= store.put(k, &canon(k), record).is_ok();
        }
        n as u64
    });
    let get_s = secs_per_op(|| {
        let Ok(mut store) = ResultStore::on_disk(&dir) else {
            ok = false;
            return 1;
        };
        for k in 0..n {
            ok &= matches!(store.get(k, &canon(k)), Ok(Some(hit)) if hit.record == record);
        }
        n as u64
    });
    let _ = std::fs::remove_dir_all(&dir);
    ctx.checks.check(ok, || {
        "campaign probe: the result store lost or refused a record".to_string()
    });
    ctx.out.insert("campaign.store_put_per_s", 1.0 / put_s);
    ctx.out.insert("campaign.store_get_per_s", 1.0 / get_s);
}
