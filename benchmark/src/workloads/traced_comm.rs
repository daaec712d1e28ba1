//! `traced-comm`: telemetry on, the non-default `sw-mpi` paths, and the
//! recorder's consumers.
//!
//! Model mode, one thread, every run with `SchedulerOptions::telemetry`:
//! four communication settings {default, 4 endpoints, 4 endpoints + 4096 B
//! aggregation + progress lane, rendezvous forced at 256 B} x {acc.sync,
//! acc.async} on 16x16x512 at 16 and 64 CGs for ten steps and on the
//! 1024-patch extension at 256 CGs for two (ten steps there take a second
//! per run).
//! Each run is followed by what a user of the trace does with it:
//! `snapshot`, `phases::analyze` reconciled exactly against the run's
//! `step_end`, `perfetto::export`, and on the 16-CG runs `race_check`. The
//! race check grows faster than the trace (0.02 s at 16 CGs, 0.08 s at 64,
//! 8 s at 256), so the one at 256 CGs is made once per traced run, outside
//! the repetitions. The recorder and its consumers are half the work here
//! and absent from `model-scale`, which is therefore the workload that
//! must not move when telemetry gets cheaper.
//!
//! The seed picks the noise seed of the 2 % kernel noise every run carries
//! and the layout of the extension problem.

use std::sync::Arc;

use burgers::BurgersApp;
use sw_math::ExpKind;
use sw_telemetry::{analyze, perfetto, Event, EventRecord};
use uintah_core::grid::iv;
use uintah_core::task::build_rank_plan;
use uintah_core::{
    race_check, Application, CommConfig, ExecMode, IntVec, Level, RunConfig, Variant,
};

use super::{extension_layouts, Metrics, Size, Workload, EXTENSION_PATCH, PAPER_LAYOUT};
use crate::rep::{fold, Rep, SimRun};
use crate::rng::Rng;
use crate::span::Tracer;

/// Aggregation flush deadline of the aggregated setting: 5 us, the value
/// `repro comm` measures its headline overlap number at.
const AGG_DEADLINE_PS: u64 = 5_000_000;

/// The four communication settings.
fn comm_settings() -> [(&'static str, CommConfig); 4] {
    let base = CommConfig::default();
    [
        ("default", base),
        (
            "endpoints4",
            CommConfig {
                endpoints: 4,
                ..base
            },
        ),
        (
            "aggregated",
            CommConfig {
                endpoints: 4,
                agg_bytes: 4096,
                agg_deadline_ps: AGG_DEADLINE_PS,
                eager_crossover: None,
                progress_lane: true,
            },
        ),
        (
            "rendezvous",
            CommConfig {
                eager_crossover: Some(256),
                ..base
            },
        ),
    ]
}

/// One (problem, CGs) shape; every setting and both variants run on it.
struct Shape {
    patch: IntVec,
    layout: IntVec,
    cgs: usize,
    steps: u32,
    race_checked: bool,
}

/// The generated inputs.
pub struct TracedComm {
    shapes: Vec<Shape>,
    noise_seed: u64,
    /// Steps of the one race-checked extension run of a traced run.
    race_steps: u32,
}

impl TracedComm {
    /// Generate the inputs for `seed`.
    pub fn generate(seed: u64, size: Size) -> TracedComm {
        let mut rng = Rng::new(seed, 3);
        let ext_layout = *rng.pick(&extension_layouts(size));
        let paper = iv(16, 16, 512);
        // (CGs, steps, race-checked) of the two 16x16x512 shapes and of
        // the extension shape.
        let plan = match size {
            Size::Full => [(16, 10, true), (64, 10, false), (256, 2, false)],
            Size::Quick => [(4, 2, true), (8, 2, false), (16, 1, false)],
        };
        let shapes = plan
            .iter()
            .enumerate()
            .map(|(i, &(cgs, steps, race_checked))| {
                let extension = i + 1 == plan.len();
                Shape {
                    patch: if extension { EXTENSION_PATCH } else { paper },
                    layout: if extension { ext_layout } else { PAPER_LAYOUT },
                    cgs,
                    steps,
                    race_checked,
                }
            })
            .collect();
        TracedComm {
            shapes,
            noise_seed: rng.next_u64(),
            race_steps: if size == Size::Full { 10 } else { 2 },
        }
    }

    fn config(&self, shape: &Shape, variant: Variant, comm: CommConfig) -> RunConfig {
        let mut cfg = RunConfig::paper(variant, ExecMode::Model, shape.cgs);
        cfg.steps = shape.steps;
        cfg.options.telemetry = true;
        cfg.comm = comm;
        cfg.noise_frac = 0.02;
        cfg.noise_seed = self.noise_seed;
        cfg
    }
}

/// Run the vector-clock race detector and the static/dynamic differential
/// over a finished traced run.
fn race_check_run(run: &SimRun, snap: &[Vec<EventRecord>], app: &dyn Application) -> bool {
    let (level, assignment) = (run.sim.level(), run.sim.assignment());
    let plans: Vec<_> = (0..run.report.n_ranks)
        .map(|r| build_rank_plan(level, assignment, r, app.ghost()))
        .collect();
    race_check(snap, level, &plans, app.stages()).is_clean()
}

impl Workload for TracedComm {
    fn inputs_digest(&self) -> u64 {
        self.shapes.iter().fold(self.noise_seed, |h, s| {
            fold(
                h,
                &[
                    s.layout.x as u64,
                    s.layout.y as u64,
                    s.layout.z as u64,
                    s.cgs as u64,
                    u64::from(s.steps),
                ],
            )
        })
    }

    fn repetition(&self, rep: &mut Rep<'_>) {
        let (mut staged, mut flushes) = (0u64, 0u64);
        for shape in &self.shapes {
            let level = Level::new(shape.patch, shape.layout);
            for (setting, comm) in comm_settings() {
                for variant in [Variant::ACC_SYNC, Variant::ACC_ASYNC] {
                    let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
                    let cfg = self.config(shape, variant, comm);
                    let run = rep.run_sim(level.clone(), app.clone(), cfg);
                    let what = || format!("{setting} {} {} CGs", variant.name(), shape.cgs);
                    let job = run.job;
                    let snap = rep
                        .tr
                        .span("telemetry.snapshot", job, |_| run.sim.recorder().snapshot());
                    let phases = rep.tr.span("telemetry.analyze", job, |_| analyze(&snap));
                    let trace = rep
                        .tr
                        .span("telemetry.perfetto", job, |_| perfetto::export(&snap));
                    // Exact reconciliation: the step windows rebuilt from
                    // the trace are the report's, to the picosecond, and
                    // every (step, rank) split sums to its window.
                    let reconciled = phases.step_end_ps.len() == run.report.step_end.len()
                        && phases
                            .step_end_ps
                            .iter()
                            .zip(&run.report.step_end)
                            .all(|(&ps, t)| ps == t.0)
                        && phases.breakdowns.iter().all(|b| b.sum_ps() == b.window_ps);
                    let mut ok = run.ok
                        & rep.checks.check(reconciled, || {
                            format!("{}: trace does not reconcile with step_end", what())
                        });
                    if shape.race_checked {
                        let clean = rep.tr.span("telemetry.race_check", job, |_| {
                            race_check_run(&run, &snap, app.as_ref())
                        });
                        ok &= rep
                            .checks
                            .check(clean, || format!("{}: race check not clean", what()));
                    }
                    rep.finish_sim(ok);

                    let records: usize = snap.iter().map(Vec::len).sum();
                    rep.add("telemetry.records", records as f64);
                    if rep.reference && comm.aggregation() {
                        // Messages per coalesced packet; a walk over every
                        // record from outside, so reference repetitions only.
                        for r in snap.iter().flatten() {
                            match r.event {
                                Event::AggStaged { .. } => staged += 1,
                                Event::AggFlushed { .. } => flushes += 1,
                                _ => {}
                            }
                        }
                    }
                    if setting == "default" {
                        // Mean overlap efficiency of the default-comm
                        // runs, per scheduler.
                        let name = if variant == Variant::ACC_SYNC {
                            "telemetry.overlap_eff_sync"
                        } else {
                            "telemetry.overlap_eff_async"
                        };
                        rep.add(name, phases.overlap_efficiency / self.shapes.len() as f64);
                    }
                    rep.fold(&[
                        records as u64,
                        trace.len() as u64,
                        phases.overlap_efficiency.to_bits(),
                    ]);
                }
            }
        }
        if flushes > 0 {
            rep.reference_max("sw-mpi.msgs_per_flush", staged as f64 / flushes as f64);
        }
    }

    fn traced_extras(&self, tr: &mut Tracer, out: &mut Metrics) {
        // The race check left out of the repetitions: the widest shape,
        // default settings, asynchronous scheduler, once.
        let shape = self.shapes.last().expect("the extension shape");
        let level = Level::new(shape.patch, shape.layout);
        let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
        let mut cfg = self.config(shape, Variant::ACC_ASYNC, CommConfig::default());
        // Ten steps, as the paper runs, whatever the repetitions use.
        cfg.steps = self.race_steps;
        let mut rep = Rep::new(tr, false);
        let run = rep.run_sim(level, app.clone(), cfg);
        let snap = run.sim.recorder().snapshot();
        let t = std::time::Instant::now();
        let clean = rep.tr.span("telemetry.race_check", run.job, |_| {
            race_check_run(&run, &snap, app.as_ref())
        });
        out.insert("telemetry.race_check_256cg_s", t.elapsed().as_secs_f64());
        if !clean {
            // Reported through the metric the detector feeds.
            *out.entry("analyze.findings").or_insert(0.0) += 1.0;
        }
    }
}
