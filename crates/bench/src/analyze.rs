//! `repro analyze`: static verification of every shipped scheduler-variant
//! x problem plan, with a machine-readable JSON report under `results/`.
//!
//! For each Table III problem, each Table IV scheduler variant, and the
//! problem's smallest and largest CG counts, the compiled task plans are
//! run through the `sw-analyze` verifier: race freedom, deadlock freedom,
//! ghost-message matching, and tile-plan exact-partition/LDM proofs. The
//! paper's Burgers setup (1 ghost layer, single-stage task graph) is
//! checked for every problem; a three-stage task graph (the split-heat
//! shape) is additionally checked on the smallest problem so multi-stage
//! ghost exchanges are covered.

use sw_analyze::AnalysisReport;
use sw_telemetry::json::{arr, obj, Json, Layout::Compact};
use uintah_core::grid::Level;
use uintah_core::{verify_plans, ExecMode, RunConfig, Variant};

use crate::problems::PROBLEMS;
use crate::runner::{plans, GHOST};

/// One verified configuration.
pub struct AnalyzeCell {
    /// Problem name (Table III).
    pub problem: &'static str,
    /// CG/rank count the plans were compiled for.
    pub cgs: usize,
    /// Task-graph stages per timestep.
    pub stages: usize,
    /// The verifier's verdict.
    pub report: AnalysisReport,
}

/// Verify the plans [`burgers`](crate::runner::burgers) compiles for `cfg`
/// on `level`, a task graph of `stages` stages.
fn analyze_one(name: &str, level: &Level, cfg: &RunConfig, stages: usize) -> AnalysisReport {
    verify_plans(
        name,
        level,
        &plans(level, cfg),
        GHOST,
        stages,
        cfg.variant,
        &cfg.options,
        &cfg.machine,
    )
}

/// Run the full analysis sweep: every problem x variant at the problem's
/// smallest and largest CG counts (Burgers single-stage), plus the
/// three-stage graph on the smallest problem.
pub fn run_analyze() -> Vec<AnalyzeCell> {
    let mut cells = Vec::new();
    for p in &PROBLEMS {
        let level = p.level();
        let mut cg_counts = vec![p.min_cgs];
        if p.min_cgs != 128 {
            cg_counts.push(128);
        }
        for variant in Variant::TABLE_IV {
            for &cgs in &cg_counts {
                let cfg = RunConfig::paper(variant, ExecMode::Model, cgs);
                cells.push(AnalyzeCell {
                    problem: p.name,
                    cgs,
                    stages: 1,
                    report: analyze_one(p.name, &level, &cfg, 1),
                });
            }
        }
    }
    // Multi-stage coverage: stage-(s+1) ghost messages and same-rank stage
    // copies only exist with stages > 1.
    let small = &PROBLEMS[0];
    let level = small.level();
    for variant in Variant::TABLE_IV {
        for cgs in [1, 128] {
            let cfg = RunConfig::paper(variant, ExecMode::Model, cgs);
            cells.push(AnalyzeCell {
                problem: small.name,
                cgs,
                stages: 3,
                report: analyze_one(small.name, &level, &cfg, 3),
            });
        }
    }
    cells
}

/// Total error-severity findings across the sweep.
pub fn total_errors(cells: &[AnalyzeCell]) -> usize {
    cells.iter().map(|c| c.report.errors()).sum()
}

/// One verifier report as a compact JSON object.
fn report_json(r: &AnalysisReport) -> Json {
    let findings = r.findings.iter().map(|f| {
        let extra = f.extra.iter().map(|(k, v)| (k.as_str(), v.as_str().into()));
        obj(
            Compact,
            [
                ("kind", f.kind.code().into()),
                ("severity", f.severity.to_string().into()),
                ("message", f.message.as_str().into()),
                (
                    "tasks",
                    arr(Compact, f.tasks.iter().map(|t| t.as_str().into())),
                ),
                ("extra", obj(Compact, extra)),
            ],
        )
    });
    obj(
        Compact,
        [
            ("name", r.name.as_str().into()),
            ("variant", r.variant.as_str().into()),
            ("n_tasks", r.n_tasks.into()),
            ("n_edges", r.n_edges.into()),
            ("pairs_checked", r.pairs_checked.into()),
            ("tile_plans", r.tile_plans.into()),
            ("tiles_checked", r.tiles_checked.into()),
            ("clean", r.is_clean().into()),
            ("findings", arr(Compact, findings)),
        ],
    )
}

/// Serialize the sweep as one JSON document.
pub fn analyze_json(cells: &[AnalyzeCell]) -> String {
    let configs = cells.iter().map(|c| {
        obj(
            Compact,
            [
                ("problem", c.problem.into()),
                ("cgs", c.cgs.into()),
                ("stages", c.stages.into()),
                ("report", report_json(&c.report)),
            ],
        )
    });
    let doc = obj(
        Compact,
        [
            ("generated_by", "repro analyze".into()),
            ("configs", arr(Compact, configs)),
            ("n_configs", cells.len().into()),
            ("total_errors", total_errors(cells).into()),
            ("clean", (total_errors(cells) == 0).into()),
        ],
    );
    doc.render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_problem_is_clean_everywhere() {
        let p = &PROBLEMS[0];
        let level = p.level();
        for variant in Variant::TABLE_IV {
            for cgs in [1, 8] {
                let cfg = RunConfig::paper(variant, ExecMode::Model, cgs);
                let r = analyze_one(p.name, &level, &cfg, 1);
                assert!(
                    r.is_clean(),
                    "{} cgs {cgs}:\n{}",
                    variant.name(),
                    r.render()
                );
                assert!(r.findings.is_empty(), "{}", r.render());
            }
        }
    }

    #[test]
    fn json_shape() {
        let p = &PROBLEMS[0];
        let cells = vec![AnalyzeCell {
            problem: p.name,
            cgs: 1,
            stages: 1,
            report: analyze_one(
                p.name,
                &p.level(),
                &RunConfig::paper(Variant::HOST_SYNC, ExecMode::Model, 1),
                1,
            ),
        }];
        let j = analyze_json(&cells);
        assert!(j.contains("\"problem\":\"16x16x512\""), "{j}");
        assert!(j.contains("\"clean\":true"), "{j}");
        assert!(j.contains("\"total_errors\":0"), "{j}");
    }

    #[test]
    fn unsafe_lookahead_findings_render_with_their_labels_escaped() {
        // A channel label carrying `"`, `\` and a newline reaches the JSON
        // through the proof's `lookahead_unsafe` finding (message + task).
        use sw_analyze::{prove_lookahead, ChannelModel};
        let channel = ChannelModel {
            src_rank: 0,
            dst_rank: 1,
            bytes: 8,
            label: "ghost(\"p3\"->p4\\XMinus)\n".into(),
        };
        let net = uintah_core::net_model(&uintah_core::MachineConfig::sw26010());
        let (proof, findings) = prove_lookahead(&[channel], &net, u64::MAX / 2);
        assert!(!proof.safe && findings.len() == 1);
        let report = AnalysisReport {
            name: "a\"b".into(),
            variant: "v".into(),
            n_tasks: 2,
            n_edges: 1,
            pairs_checked: 3,
            tile_plans: 0,
            tiles_checked: 0,
            findings,
        };
        let j = report_json(&report).render();
        assert!(
            j.starts_with("{\"name\":\"a\\\"b\",\"variant\":\"v\",\"n_tasks\":2,"),
            "{j}"
        );
        assert!(j.contains("\"clean\":false,\"findings\":[{\"kind\":\"lookahead_unsafe\",\"severity\":\"error\","), "{j}");
        assert!(
            j.contains("\"tasks\":[\"ghost(\\\"p3\\\"->p4\\\\XMinus)\\n\"]"),
            "{j}"
        );
        assert!(
            j.contains("\"extra\":{\"src_rank\":\"0\",\"dst_rank\":\"1\",\"bytes\":\"8\","),
            "{j}"
        );
        assert!(!j.contains('\n'), "raw newline leaked into the JSON: {j}");
    }
}
