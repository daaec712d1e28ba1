//! `repro trace`: run instrumented simulations and export structured
//! telemetry as a Chrome/Perfetto trace plus a derived-metrics summary.
//!
//! For each requested variant the Burgers problem is run in model mode with
//! `SchedulerOptions::telemetry` enabled, then:
//!
//! * `results/TRACE_<problem>_<variant>_<cgs>cg.perfetto.json` — the
//!   trace-event JSON (load at <https://ui.perfetto.dev>): one process per
//!   rank, one track per MPE / CPE slot / wire, flow arrows send→recv;
//! * `results/TIMELINE.json` — the derived phase breakdowns (compute /
//!   comm-hidden / comm-exposed / idle per rank and step), overlap
//!   efficiency, critical-path summary, and the metrics registry, for every
//!   variant side by side.
//!
//! The pass double-checks itself: the phase windows are rebuilt from the
//! `Barrier` events and must equal `RunReport::step_end` exactly, and each
//! (step, rank) four-way split must sum to its window (`reconciled` in the
//! JSON). [`violations`] gates that, plus the paper's core claim made
//! visible: each async variant hides strictly more communication than its
//! sync sibling with the same kernel.

use sw_telemetry::json::{
    arr, fixed, obj, Json,
    Layout::{Block, Row},
};
use sw_telemetry::{analyze, perfetto, PhaseReport};
use uintah_core::{ConfigError, ExecMode, Level, RunConfig, RunReport, Simulation, Variant};

use crate::problems::ProblemSpec;
use crate::runner::burgers;

/// Outcome of tracing one variant.
pub struct TraceCase {
    /// Variant name (Table IV).
    pub variant: &'static str,
    /// File the Perfetto JSON was written to (relative to the results dir).
    pub trace_file: String,
    /// Events recorded across all ranks.
    pub events: usize,
    /// The derived-metrics pass output.
    pub phases: PhaseReport,
    /// Whether the phase pass's step windows equal `RunReport::step_end`
    /// exactly and every four-way split sums to its window.
    pub reconciled: bool,
    /// The run report the trace reconciles against.
    pub report: RunReport,
    /// The metrics registry of the run.
    pub metrics: Json,
}

/// The exactness contract between a trace and its run: the step windows
/// the phase pass rebuilt from `Barrier` events equal `RunReport::step_end`
/// to the picosecond, and every (step, rank) four-way split sums to its
/// window.
pub fn reconciles(phases: &PhaseReport, report: &RunReport) -> bool {
    phases.step_end_ps.len() == report.step_end.len()
        && phases
            .step_end_ps
            .iter()
            .zip(&report.step_end)
            .all(|(&ps, t)| ps == t.0)
        && phases.breakdowns.iter().all(|b| b.sum_ps() == b.window_ps)
}

/// The instrumented model run of `variant` on `level` that a trace
/// records; an invalid `cgs`/`steps` is a typed error.
fn traced(
    level: &Level,
    variant: Variant,
    cgs: usize,
    steps: u32,
) -> Result<Simulation, ConfigError> {
    let mut cfg = RunConfig {
        steps,
        ..RunConfig::paper(variant, ExecMode::Model, cgs)
    };
    cfg.options.telemetry = true;
    burgers(level, cfg)
}

/// Run a [`traced`] simulation of `variant` on problem `p`, returning the
/// case summary and the Perfetto trace-event JSON.
fn export(
    p: &ProblemSpec,
    variant: Variant,
    cgs: usize,
    mut sim: Simulation,
) -> (TraceCase, String) {
    let report = sim.run();
    let snap = sim.recorder().snapshot();
    let events: usize = snap.iter().map(|b| b.len()).sum();
    let json = perfetto::export(&snap);
    let phases = analyze(&snap);
    let reconciled = reconciles(&phases, &report);
    let metrics = sim
        .recorder()
        .metrics()
        .expect("the run above recorded telemetry")
        .json();
    (
        TraceCase {
            variant: variant.name(),
            trace_file: format!(
                "TRACE_{}_{}_{}cg.perfetto.json",
                p.name,
                variant.name(),
                cgs
            ),
            events,
            phases,
            reconciled,
            report,
            metrics,
        },
        json,
    )
}

/// Every way a set of traced cases falls short, one line each: an empty
/// trace, a phase pass that does not reconcile with its `RunReport`, an
/// overlap efficiency outside [0, 1], or an async variant not hiding
/// strictly more communication than its sync sibling *with the same kernel*
/// (SIMD kernels are shorter, so cross-kernel comparisons are meaningless).
pub fn violations(cases: &[TraceCase]) -> Vec<String> {
    let mut v = Vec::new();
    if cases.is_empty() {
        v.push("no traced variants".to_string());
    }
    for c in cases {
        if c.events == 0 {
            v.push(format!("{}: empty trace", c.variant));
        }
        if !c.reconciled {
            v.push(format!(
                "{}: phase pass did not reconcile with its RunReport",
                c.variant
            ));
        }
        if !(0.0..=1.0).contains(&c.phases.overlap_efficiency) {
            v.push(format!(
                "{}: overlap_efficiency {} not in [0, 1]",
                c.variant, c.phases.overlap_efficiency
            ));
        }
    }
    let eff = |v: Variant| {
        cases
            .iter()
            .find(|c| c.variant == v.name())
            .map(|c| c.phases.overlap_efficiency)
    };
    for (sync, async_) in [
        (Variant::ACC_SYNC, Variant::ACC_ASYNC),
        (Variant::ACC_SIMD_SYNC, Variant::ACC_SIMD_ASYNC),
    ] {
        if let (Some(s), Some(a)) = (eff(sync), eff(async_)) {
            if a <= s {
                v.push(format!(
                    "{} efficiency {a:.6} not strictly above {} {s:.6}",
                    async_.name(),
                    sync.name()
                ));
            }
        }
    }
    v
}

/// Render `TIMELINE.json` for a set of traced cases.
pub fn timeline_json(p: &ProblemSpec, cgs: usize, steps: u32, cases: &[TraceCase]) -> String {
    let variants = cases.iter().map(|c| {
        let (compute, hidden, exposed, idle) = c.phases.totals();
        // Per-step phase rows (step-major, rank-major inside).
        let breakdowns = c.phases.breakdowns.iter().map(|b| {
            obj(
                Row,
                [
                    ("step", b.step.into()),
                    ("rank", b.rank.into()),
                    ("window_ps", b.window_ps.into()),
                    ("compute_ps", b.compute_ps.into()),
                    ("hidden_ps", b.hidden_ps.into()),
                    ("exposed_ps", b.exposed_ps.into()),
                    ("idle_ps", b.idle_ps.into()),
                ],
            )
        });
        // Critical path, forward order.
        let critical_path = c.phases.critical_path.iter().map(|e| {
            obj(
                Row,
                [
                    ("rank", e.rank.into()),
                    ("kind", e.kind.into()),
                    ("start_ps", e.start_ps.into()),
                    ("end_ps", e.end_ps.into()),
                    ("detail", e.detail.as_str().into()),
                ],
            )
        });
        obj(
            Block,
            [
                ("variant", c.variant.into()),
                ("trace_file", c.trace_file.as_str().into()),
                ("events", c.events.into()),
                ("reconciled", c.reconciled.into()),
                ("overlap_efficiency", fixed(c.phases.overlap_efficiency, 6)),
                ("compute_ps", compute.into()),
                ("comm_hidden_ps", hidden.into()),
                ("comm_exposed_ps", exposed.into()),
                ("idle_ps", idle.into()),
                (
                    "total_time_ps",
                    c.report.step_end.last().map_or(0, |t| t.0).into(),
                ),
                (
                    "step_end_ps",
                    arr(Row, c.phases.step_end_ps.iter().map(|&ps| ps.into())),
                ),
                ("breakdowns", arr(Block, breakdowns)),
                ("critical_path", arr(Block, critical_path)),
                ("metrics", c.metrics.clone()),
            ],
        )
    });
    let doc = obj(
        Block,
        [
            ("problem", p.name.into()),
            ("cgs", cgs.into()),
            ("steps", steps.into()),
            ("variants", arr(Block, variants)),
        ],
    );
    doc.render() + "\n"
}

/// Trace every variant of `variants`: each case with its Perfetto
/// trace-event JSON, in order. Every variant's configuration is checked
/// before the first run, so an invalid `cgs` or `steps` fails with nothing
/// run.
pub fn run_trace(
    p: &ProblemSpec,
    variants: &[Variant],
    cgs: usize,
    steps: u32,
) -> Result<Vec<(TraceCase, String)>, ConfigError> {
    let level = p.level();
    let sims = variants
        .iter()
        .map(|&v| traced(&level, v, cgs, steps))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(variants
        .iter()
        .zip(sims)
        .map(|(&v, sim)| export(p, v, cgs, sim))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::SMALL;

    /// The traced sync and async cases of [`SMALL`] on 2 CGs.
    fn sync_and_async(steps: u32) -> Vec<TraceCase> {
        let variants = [Variant::ACC_SYNC, Variant::ACC_ASYNC];
        let traced = run_trace(SMALL, &variants, 2, steps).unwrap();
        traced.into_iter().map(|(case, _)| case).collect()
    }

    #[test]
    fn traced_sync_and_async_reconcile_and_async_hides_more() {
        let cases = sync_and_async(3);
        let (sync, async_) = (&cases[0], &cases[1]);
        assert!(sync.reconciled, "sync trace must reconcile with RunReport");
        assert!(async_.reconciled, "async trace must reconcile");
        assert!(sync.events > 0 && async_.events > 0);
        assert!(
            async_.phases.overlap_efficiency > sync.phases.overlap_efficiency,
            "async must hide more communication than sync: async {} vs sync {}",
            async_.phases.overlap_efficiency,
            sync.phases.overlap_efficiency
        );
        for c in [sync, async_] {
            assert!(
                (0.0..=1.0).contains(&c.phases.overlap_efficiency),
                "efficiency in [0,1]"
            );
            assert!(!c.phases.critical_path.is_empty());
            assert!(c.report.leaked_handles.is_empty(), "no leaked handles");
        }
    }

    #[test]
    fn violations_name_the_variant_that_stopped_hiding_communication() {
        let cases = || sync_and_async(2);
        assert_eq!(violations(&cases()), Vec::<String>::new());
        let json = timeline_json(SMALL, 2, 2, &cases());
        assert!(json.contains("\"reconciled\": true"));
        assert!(json.contains("\n      \"metrics\": {\n        \"offloads\": "));

        let named = |corrupt: &dyn Fn(&mut Vec<TraceCase>), needle: &str| {
            crate::cli::assert_names(cases(), corrupt, |c| violations(c), needle);
        };
        named(
            &|c| c[0].reconciled = false,
            "acc.sync: phase pass did not reconcile",
        );
        named(&|c| c[1].events = 0, "acc.async: empty trace");
        named(
            &|c| c[0].phases.overlap_efficiency = 1.25,
            "acc.sync: overlap_efficiency 1.25",
        );
        named(
            &|c| c[1].phases.overlap_efficiency = c[0].phases.overlap_efficiency,
            "acc.async efficiency",
        );
        named(&|c| c.clear(), "no traced variants");
    }
}
