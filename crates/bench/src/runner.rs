//! The one way `bench` builds a Burgers run, and the cache of model-mode
//! table cells, serially or across a worker pool.
//!
//! A run is a `(Level, RunConfig)` pair: [`burgers`] constructs it, and
//! its canonical line ([`canonical_job`]) names it — the line is also the
//! [`Runner`]'s cache key, so two tables asking for the same run share one
//! simulation. [`Runner::render`] finds a renderer's cells by running it
//! once on stand-in reports, then computes them over the pool.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use burgers::BurgersApp;
use uintah_core::task::{build_rank_plans, resolve_assignment, RankPlan};
use uintah_core::{
    canonical_job, Application, ConfigError, ExecMode, Level, RunConfig, RunReport, Simulation,
    Variant,
};

use crate::problems::ProblemSpec;

/// Ghost layers of the Burgers stencil: the width [`plans`] compiles for.
pub const GHOST: i64 = 1;

/// Dependent kernel stages per Burgers timestep.
pub const STAGES: usize = 1;

/// The Burgers simulation of `cfg` on `level`. The app evaluates `exp`
/// with `cfg.variant.exp`, so the canonical line of `(level, cfg)` names
/// the run completely. An invalid configuration is a typed error.
pub fn burgers(level: &Level, cfg: RunConfig) -> Result<Simulation, ConfigError> {
    let app = Arc::new(BurgersApp::new(level, cfg.variant.exp));
    debug_assert_eq!((app.ghost(), app.stages()), (GHOST, STAGES));
    Simulation::try_new(level.clone(), app, cfg)
}

/// The per-rank task plans [`burgers`] compiles for `cfg` on `level`,
/// without constructing a simulation.
pub fn plans(level: &Level, cfg: &RunConfig) -> Vec<RankPlan> {
    build_rank_plans(level, &resolve_assignment(level, cfg), cfg.n_ranks, GHOST)
}

/// One model-mode table cell: a level and the configuration it runs
/// under, named (and cached) by its canonical line.
pub type SweepCell = (Level, RunConfig);

/// The paper's cell: problem `p` with `variant` on `n_cgs` CGs under
/// [`RunConfig::paper`] in model mode.
pub fn paper_cell(p: &ProblemSpec, variant: Variant, n_cgs: usize) -> SweepCell {
    (p.level(), RunConfig::paper(variant, ExecMode::Model, n_cgs))
}

/// Runs sweep cells, caching each report under the cell's canonical line
/// so tables sharing a run (e.g. Fig 5 / Table V, or an ablation's
/// baseline) simulate it once.
#[derive(Default)]
pub struct Runner {
    cache: BTreeMap<String, RunReport>,
    misses: usize,
    /// While [`Runner::render`] records: every cell missed so far.
    recorded: Option<Vec<SweepCell>>,
    /// The stand-in report last handed out while recording.
    stand_in: RunReport,
}

/// The cache key of a cell: its canonical line.
fn key((level, cfg): &SweepCell) -> String {
    canonical_job(level, "burgers", cfg)
}

/// Simulate one cell from scratch (the uncached work item).
fn simulate((level, cfg): &SweepCell) -> RunReport {
    burgers(level, cfg.clone())
        .expect("a valid sweep cell")
        .run()
}

impl Runner {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulations run so far: every cache miss, none for a hit.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Run (or fetch) one cell. While [`Runner::render`] records, a miss
    /// is noted and answered by a stand-in: the cell's `steps` and
    /// `n_ranks`, zeros elsewhere.
    pub fn run(&mut self, cell: &SweepCell) -> &RunReport {
        let key = key(cell);
        if let Some(recorded) = &mut self.recorded {
            if !self.cache.contains_key(&key) {
                recorded.push(cell.clone());
                self.stand_in = RunReport {
                    steps: cell.1.steps,
                    n_ranks: cell.1.n_ranks,
                    ..RunReport::default()
                };
                return &self.stand_in;
            }
        }
        let misses = &mut self.misses;
        self.cache.entry(key).or_insert_with(|| {
            *misses += 1;
            simulate(cell)
        })
    }

    /// `f(self)`, with its cells computed over `jobs` pool workers first
    /// (`0` = one per hardware thread).
    ///
    /// A recording pass runs `f` once on stand-in reports and notes every
    /// cell it misses; those are prefetched, and `f` runs again for real
    /// from the warm cache. The recording only chooses what to prefetch: a
    /// cell whose choice depends on a stand-in's numbers would be computed
    /// serially by the real pass, never wrongly.
    pub fn render<T>(&mut self, jobs: usize, mut f: impl FnMut(&mut Self) -> T) -> T {
        self.recorded = Some(Vec::new());
        f(self);
        let cells = self.recorded.take().unwrap_or_default();
        self.prefetch(&cells, jobs);
        f(self)
    }

    /// Compute every not-yet-cached cell of `cells`, fanning the independent
    /// simulations out over `jobs` pool workers.
    ///
    /// The result is byte-identical to computing the cells serially: each
    /// cell is an isolated virtual-time simulation whose report cannot
    /// depend on wall-clock interleaving, and the cache is keyed by the
    /// cell, not by who computed it, so `--jobs N` output equals `--jobs 1`
    /// output.
    fn prefetch(&mut self, cells: &[SweepCell], jobs: usize) {
        // Dedupe against the cache and within the request, first-seen order.
        let mut seen = BTreeSet::new();
        let todo: Vec<(String, &SweepCell)> = cells
            .iter()
            .map(|cell| (key(cell), cell))
            .filter(|(k, _)| !self.cache.contains_key(k) && seen.insert(k.clone()))
            .collect();
        if todo.is_empty() {
            return;
        }
        let jobs = if jobs == 0 {
            rayon::current_num_threads()
        } else {
            jobs
        }
        .clamp(1, todo.len());
        let computed: Vec<(usize, RunReport)> = if jobs == 1 {
            todo.iter()
                .enumerate()
                .map(|(i, (_, cell))| (i, simulate(cell)))
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            rayon::scope(|s| {
                let handles: Vec<_> = (0..jobs)
                    .map(|_| {
                        let (next, todo) = (&next, &todo);
                        s.spawn(move || {
                            let mut out = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some((_, cell)) = todo.get(i) else {
                                    break;
                                };
                                out.push((i, simulate(cell)));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("sweep worker panicked"))
                    .collect()
            })
        };
        self.misses += computed.len();
        for (i, report) in computed {
            self.cache.insert(todo[i].0.clone(), report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::weak_scaling;
    use crate::fidelity::fidelity_rebalance;
    use crate::problems::{PROBLEMS, SMALL};
    use uintah_core::SimDur;

    #[test]
    fn prefetch_matches_serial_runs_bit_for_bit() {
        // An ablation-style cell: the paper cell's problem, variant and CG
        // count on another machine. Keyed by (problem, variant, CGs) it
        // would have collided with the paper cell.
        let mut slow_poll = paper_cell(SMALL, Variant::ACC_ASYNC, 2);
        slow_poll.1.machine.flag_poll_interval = SimDur::from_us(3000.0);
        let cells: Vec<SweepCell> = vec![
            paper_cell(SMALL, Variant::ACC_SYNC, 1),
            paper_cell(SMALL, Variant::ACC_ASYNC, 1),
            paper_cell(SMALL, Variant::ACC_ASYNC, 2),
            slow_poll.clone(),
            paper_cell(&PROBLEMS[1], Variant::ACC_SIMD_ASYNC, 4),
            // Duplicate on purpose: prefetch must dedupe.
            paper_cell(SMALL, Variant::ACC_ASYNC, 1),
        ];
        let mut parallel = Runner::new();
        parallel.prefetch(&cells, 4);
        assert_eq!(parallel.misses(), 5, "five distinct cells, each run once");
        let mut serial = Runner::new();
        for cell in &cells {
            serial.run(cell);
        }
        assert_eq!(serial.misses(), 5, "five distinct cells, each run once");
        for cell in &cells {
            let a = parallel.run(cell).clone();
            let b = serial.run(cell).clone();
            let name = key(cell);
            assert_eq!(a.step_end, b.step_end, "{name}");
            assert_eq!(a.total_time, b.total_time);
            assert_eq!(a.flops.total(), b.flops.total());
            assert_eq!(a.messages, b.messages);
            assert_eq!(a.events, b.events);
        }
        assert_eq!(
            (parallel.misses(), serial.misses()),
            (5, 5),
            "a cached cell ran again"
        );
        let paper = parallel
            .run(&paper_cell(SMALL, Variant::ACC_ASYNC, 2))
            .clone();
        assert_ne!(
            parallel.run(&slow_poll).total_time,
            paper.total_time,
            "the slow-poll cell was served the paper cell's report"
        );

        // Through `render`: weak scaling and the rebalance table, whose
        // cells are edited paper configs. The recording pass must name
        // exactly the cells the real pass reads: each prefetched once,
        // none run while recording, none missed afterwards.
        let tables = |r: &mut Runner| {
            [weak_scaling(r), fidelity_rebalance(r)]
                .map(|t| t.render())
                .concat()
        };
        let mut pooled = Runner::new();
        let mut pass_misses = Vec::new();
        let text = pooled.render(2, |r| {
            let before = r.misses();
            let text = tables(r);
            pass_misses.push(r.misses() - before);
            text
        });
        let mut cold = Runner::new();
        assert_eq!(text, tables(&mut cold), "pooled text differs from serial");
        assert_eq!(pass_misses, [0, 0], "a pass simulated a cell itself");
        assert_eq!(
            pooled.misses(),
            cold.misses(),
            "a recorded cell went unread"
        );
    }
}
