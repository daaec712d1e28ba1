//! `repro scale`: paper-scale strong-scaling sweeps on the PDES engine.
//!
//! The paper's evaluation stops at 128 CGs (Table V / §VII). This sweep
//! reproduces that axis on the smallest Table III problem and then pushes
//! past the paper — 256, 512 and 1024 simulated CGs on a 1024-patch
//! extension problem — which is exactly the regime the conservative-PDES
//! engine (DESIGN.md §14) exists for: the serial event engine advances one
//! simulated rank at a time, while the PDES engine advances every rank
//! concurrently inside lookahead windows.
//!
//! Every swept cell runs **both** engines and asserts the reports are
//! bit-identical — the sweep doubles as a correctness gate. The engines'
//! wall-clock times are host measurements: `repro scale` prints them, and
//! `results/BENCH_scale.json` holds only the deterministic fields, so it
//! regenerates byte for byte on any host.
//!
//! `repro scale` exits non-zero on any of [`ScaleOutcome::violations`]:
//! engine divergence, a collapsed strong-scaling curve, or async losing to
//! sync on the paper problem while ranks still hold patches to overlap.

use std::time::Instant;

use sw_telemetry::json::{
    arr, fixed, obj,
    Layout::{Block, Row},
};
use uintah_core::grid::{iv, Level};
use uintah_core::{ExecMode, RunConfig, Variant};

use crate::problems::SMALL;
use crate::runner::burgers;

/// Timesteps per swept run (the paper's evaluation setting).
pub const STEPS: u32 = 10;

/// One (problem, variant, CG count) cell of the sweep, both engines.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Problem name (Table III name, or the extension problem).
    pub problem: String,
    /// Patches in the problem's layout.
    pub patches: usize,
    /// Variant name (sync vs async pair of the curves).
    pub variant: &'static str,
    /// Simulated CGs (ranks).
    pub cgs: usize,
    /// Virtual completion time of the run, picoseconds.
    pub virtual_time_ps: u64,
    /// Strong-scaling speedup vs the problem's smallest swept CG count.
    pub speedup: f64,
    /// Parallel efficiency: `speedup * base_cgs / cgs`.
    pub efficiency: f64,
    /// Wall-clock of the serial event engine, milliseconds.
    pub serial_wall_ms: f64,
    /// Wall-clock of the PDES engine (auto worker count), milliseconds.
    pub pdes_wall_ms: f64,
    /// Whether the PDES report was bit-identical to the serial report.
    pub pdes_identical: bool,
}

/// Whole-sweep outcome.
#[derive(Clone, Debug, Default)]
pub struct ScaleOutcome {
    /// Swept cells, axis order within each (problem, variant) group.
    pub cells: Vec<ScaleCell>,
}

/// Slack for the monotone-speedup check: modeled contention can flatten
/// the curve between adjacent CG counts, but never collapse it.
const MONOTONE_SLACK: f64 = 0.98;

/// Actual host parallelism, straight from the OS, NOT the pool size. On a
/// single-core host a "parallel" run is the serial path with extra
/// scheduling overhead, and `repro scale` says so instead of implying a
/// speedup.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl ScaleOutcome {
    /// Did every cell's PDES run match its serial run bit-for-bit?
    pub fn all_identical(&self) -> bool {
        self.cells.iter().all(|c| c.pdes_identical)
    }

    /// Largest CG count swept.
    pub fn max_cgs(&self) -> usize {
        self.cells.iter().map(|c| c.cgs).max().unwrap_or(0)
    }

    /// Every broken sweep invariant, one line per cell: PDES bit identity,
    /// strong-scaling shape per (problem, variant) curve (baseline 1.0, CG
    /// axis increasing, speedup monotone within [`MONOTONE_SLACK`]), and
    /// the overlap advantage: on the paper problem, at every CG count that
    /// leaves each rank >= 2 patches to pipeline, async finishes no later
    /// than sync in virtual time. (At 1 patch/rank there is nothing left to
    /// overlap; that crossover is a finding, see EXPERIMENTS.md.)
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.cells.is_empty() {
            v.push("empty sweep: no cell ran".to_string());
        }
        for c in &self.cells {
            let cell = format!("{} {} at {} CGs", c.problem, c.variant, c.cgs);
            if !c.pdes_identical {
                v.push(format!("{cell}: PDES diverged from serial"));
            }
            if c.cgs > c.patches {
                v.push(format!("{cell}: exceeds the {}-patch layout", c.patches));
            }
        }
        // Cells of one (problem, variant) curve are contiguous, axis order.
        for curve in self
            .cells
            .chunk_by(|a, b| (&a.problem, a.variant) == (&b.problem, b.variant))
        {
            let name = format!("{}/{}", curve[0].problem, curve[0].variant);
            if (curve[0].speedup - 1.0).abs() > 1e-9 {
                v.push(format!(
                    "{name}: baseline speedup {} != 1.0",
                    curve[0].speedup
                ));
            }
            for w in curve.windows(2) {
                if w[1].cgs <= w[0].cgs {
                    v.push(format!(
                        "{name}: CG axis not increasing ({} -> {})",
                        w[0].cgs, w[1].cgs
                    ));
                }
                if w[1].speedup < w[0].speedup * MONOTONE_SLACK {
                    v.push(format!(
                        "{name}: speedup collapsed {:.3} -> {:.3} at {} CGs",
                        w[0].speedup, w[1].speedup, w[1].cgs
                    ));
                }
            }
        }
        let paper = |variant: Variant| {
            self.cells
                .iter()
                .filter(move |c| c.problem == SMALL.name && c.variant == variant.name())
        };
        let mut compared = 0;
        for s in paper(Variant::ACC_SYNC) {
            let Some(a) = paper(Variant::ACC_ASYNC).find(|a| a.cgs == s.cgs) else {
                v.push(format!(
                    "{}: async curve missing the {}-CG row",
                    SMALL.name, s.cgs
                ));
                continue;
            };
            if s.patches / s.cgs >= 2 {
                compared += 1;
                if a.virtual_time_ps > s.virtual_time_ps {
                    v.push(format!(
                        "{} at {} CGs: async ({} ps) slower than sync ({} ps) with {} patches/rank to overlap",
                        SMALL.name,
                        s.cgs,
                        a.virtual_time_ps,
                        s.virtual_time_ps,
                        s.patches / s.cgs
                    ));
                }
            }
        }
        if compared == 0 {
            v.push(format!(
                "{}: no CG count with both curves and >= 2 patches/rank, the overlap check never ran",
                SMALL.name
            ));
        }
        v
    }
}

/// The sync/async pair whose curves the sweep compares (paper Table VI:
/// same kernels, scheduler overlap is the only difference).
const VARIANTS: [Variant; 2] = [Variant::ACC_SYNC, Variant::ACC_ASYNC];

/// The beyond-the-paper extension problem: 1024 patches (16x16x4 layout of
/// 16x16x64-cell patches) so the sweep can assign one patch per CG at 1024
/// CGs. Model mode allocates no field data, so only the task graph scales.
pub(crate) fn extension_level() -> (String, Level) {
    (
        "16x16x64/1024p".to_string(),
        Level::new(iv(16, 16, 64), iv(16, 16, 4)),
    )
}

/// Sweep one problem over `cg_axis` for both variants, appending cells.
fn sweep_problem(name: &str, level: &Level, cg_axis: &[usize], cells: &mut Vec<ScaleCell>) {
    for variant in VARIANTS {
        let mut base: Option<(usize, u64)> = None;
        for &cgs in cg_axis {
            // One engine's run of the cell: the report and its wall-clock ms.
            let timed = |pdes: bool| {
                let cfg = RunConfig {
                    steps: STEPS,
                    pdes,
                    ..RunConfig::paper(variant, ExecMode::Model, cgs)
                };
                let mut sim = burgers(level, cfg).expect("a valid sweep cell");
                let t0 = Instant::now();
                let report = sim.run();
                (report, t0.elapsed().as_secs_f64() * 1e3)
            };
            let (serial, serial_wall_ms) = timed(false);
            let (pdes, pdes_wall_ms) = timed(true);
            // The PDES engine must replay the serial timeline exactly —
            // every swept config is also a correctness witness.
            let pdes_identical = format!("{serial:?}") == format!("{pdes:?}");
            let t = serial.total_time.0;
            let (base_cgs, base_t) = *base.get_or_insert((cgs, t));
            let speedup = base_t as f64 / t as f64;
            let efficiency = speedup * base_cgs as f64 / cgs as f64;
            cells.push(ScaleCell {
                problem: name.to_string(),
                patches: level.n_patches(),
                variant: variant.name(),
                cgs,
                virtual_time_ps: t,
                speedup,
                efficiency,
                serial_wall_ms,
                pdes_wall_ms,
                pdes_identical,
            });
        }
    }
}

/// The CG counts swept on the paper problem.
pub const PAPER_AXIS: [usize; 5] = [1, 4, 16, 64, 128];
/// The CG counts swept on the extension problem.
pub const EXTENSION_AXIS: [usize; 4] = [64, 256, 512, 1024];

/// Run the sweep over `paper_axis` on the paper problem and `ext_axis` on
/// the extension problem.
pub fn run_scale(paper_axis: &[usize], ext_axis: &[usize]) -> ScaleOutcome {
    let mut cells = Vec::new();
    sweep_problem(SMALL.name, &SMALL.level(), paper_axis, &mut cells);
    let (name, level) = extension_level();
    sweep_problem(&name, &level, ext_axis, &mut cells);
    ScaleOutcome { cells }
}

/// Render the sweep as the `BENCH_scale.json` document: the deterministic
/// fields only, so the file is a function of the code.
pub fn scale_json(outcome: &ScaleOutcome) -> String {
    let cells = outcome.cells.iter().map(|c| {
        obj(
            Row,
            [
                ("problem", c.problem.as_str().into()),
                ("patches", c.patches.into()),
                ("variant", c.variant.into()),
                ("cgs", c.cgs.into()),
                ("virtual_time_ps", c.virtual_time_ps.into()),
                ("speedup", fixed(c.speedup, 4)),
                ("efficiency", fixed(c.efficiency, 4)),
                ("pdes_identical", c.pdes_identical.into()),
            ],
        )
    });
    let doc = obj(
        Block,
        [
            ("steps", STEPS.into()),
            ("max_cgs", outcome.max_cgs().into()),
            ("all_identical", outcome.all_identical().into()),
            ("cells", arr(Block, cells)),
        ],
    );
    doc.render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_identical_and_shaped() {
        let o = run_scale(&[1, 4, 16], &[]);
        assert_eq!(o.cells.len(), 2 * 3, "two variants x three CG counts");
        assert!(
            o.all_identical(),
            "PDES diverged from serial: {:?}",
            o.cells
        );
        // Strong scaling, baseline 1.0 and async no later than sync on a
        // common baseline are all `violations()` clauses.
        assert_eq!(o.violations(), Vec::<String>::new());
        // The artifact holds no host clock: a second sweep writes the same
        // bytes.
        assert_eq!(scale_json(&o), scale_json(&run_scale(&[1, 4, 16], &[])));
    }

    #[test]
    fn json_document_shape() {
        let o = ScaleOutcome {
            cells: vec![ScaleCell {
                problem: "p".into(),
                patches: 128,
                variant: "acc.sync",
                cgs: 4,
                virtual_time_ps: 1000,
                speedup: 3.5,
                efficiency: 0.875,
                serial_wall_ms: 10.0,
                pdes_wall_ms: 5.0,
                pdes_identical: true,
            }],
        };
        let j = scale_json(&o);
        assert!(j.contains("\"speedup\": 3.5000"));
        assert!(j.contains("\"all_identical\": true"));
        assert!(j.contains("\"max_cgs\": 4"));
        // Host measurements are printed by `repro scale`, never written.
        for host in [
            "host_threads",
            "degenerate_host",
            "serial_wall_ms",
            "pdes_wall_ms",
            "pdes_wall_speedup",
            "warning",
        ] {
            assert!(!j.contains(host), "{host} is in the artifact");
        }
    }

    #[test]
    fn violations_name_the_corrupted_cell() {
        // Two paper-problem curves over 1/4/128 CGs; at 128 CGs (one patch
        // per rank) async is allowed to lose.
        let cell = |variant, cgs: usize, t: u64, base: u64| ScaleCell {
            problem: SMALL.name.to_string(),
            patches: 128,
            variant,
            cgs,
            virtual_time_ps: t,
            speedup: base as f64 / t as f64,
            efficiency: base as f64 / t as f64 / cgs as f64,
            serial_wall_ms: 1.0,
            pdes_wall_ms: 1.0,
            pdes_identical: true,
        };
        let passing = || ScaleOutcome {
            cells: vec![
                cell("acc.sync", 1, 1200, 1200),
                cell("acc.sync", 4, 310, 1200),
                cell("acc.sync", 128, 13, 1200),
                cell("acc.async", 1, 1000, 1000),
                cell("acc.async", 4, 266, 1000),
                cell("acc.async", 128, 14, 1000),
            ],
        };
        assert_eq!(passing().violations(), Vec::<String>::new());

        let named = |corrupt: &dyn Fn(&mut ScaleOutcome), needle: &str| {
            crate::cli::assert_names(passing(), corrupt, ScaleOutcome::violations, needle);
        };
        named(
            &|o| o.cells[1].pdes_identical = false,
            "16x16x512 acc.sync at 4 CGs: PDES diverged",
        );
        named(
            &|o| o.cells[4].virtual_time_ps = 311,
            "16x16x512 at 4 CGs: async (311 ps) slower than sync (310 ps) with 32 patches/rank",
        );
        named(
            &|o| o.cells[2].speedup = 3.0,
            "16x16x512/acc.sync: speedup collapsed",
        );
        named(
            &|o| o.cells[3].speedup = 1.5,
            "16x16x512/acc.async: baseline speedup",
        );
        named(&|o| o.cells[4].cgs = 1, "CG axis not increasing");
        named(&|o| o.cells[5].cgs = 256, "exceeds the 128-patch layout");
        named(
            &|o| o.cells.retain(|c| (c.variant, c.cgs) != ("acc.async", 4)),
            "async curve missing the 4-CG row",
        );
        named(
            &|o| o.cells.retain(|c| c.cgs == 128),
            "overlap check never ran",
        );
        named(&|o| o.cells.clear(), "empty sweep");
    }
}
