//! Running and caching evaluation cases, serially or across a worker pool.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use burgers::BurgersApp;
use sw_math::ExpKind;
use uintah_core::{ExecMode, MachineConfig, RunConfig, RunReport, Simulation, Variant};

use crate::problems::ProblemSpec;

/// One independent sweep cell: (problem, variant, CG count).
pub type SweepCell = (&'static ProblemSpec, Variant, usize);

/// Runs evaluation cases in model mode, caching each (problem, variant, CGs)
/// so tables sharing data (e.g. Fig 5 / Table V) measure once.
pub struct Runner {
    machine: MachineConfig,
    steps: u32,
    cache: BTreeMap<(String, &'static str, usize), RunReport>,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// The paper's setup: calibrated SW26010, 10 timesteps.
    pub fn new() -> Self {
        Runner {
            machine: MachineConfig::sw26010(),
            steps: 10,
            cache: BTreeMap::new(),
        }
    }

    /// The machine model in use.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Run (or fetch) one case.
    pub fn run(&mut self, p: &ProblemSpec, variant: Variant, n_cgs: usize) -> &RunReport {
        let key = (p.name.to_string(), variant.name(), n_cgs);
        if !self.cache.contains_key(&key) {
            let report = compute_cell(&self.machine, self.steps, p, variant, n_cgs);
            self.cache.insert(key.clone(), report);
        }
        &self.cache[&key]
    }

    /// Compute every not-yet-cached cell of `cells`, fanning the independent
    /// simulations out over `jobs` pool workers (`0` = one per hardware
    /// thread).
    ///
    /// The result is byte-identical to computing the cells serially: each
    /// cell is an isolated virtual-time simulation whose report cannot
    /// depend on wall-clock interleaving, and the reports are inserted into
    /// the cache in deterministic input order. Tables rendered afterwards
    /// hit the warm cache, so `--jobs N` output equals `--jobs 1` output.
    pub fn prefetch(&mut self, cells: &[SweepCell], jobs: usize) {
        // Dedupe against the cache and within the request, first-seen order.
        let mut seen = BTreeSet::new();
        let todo: Vec<SweepCell> = cells
            .iter()
            .filter(|(p, v, n)| {
                let key = (p.name.to_string(), v.name(), *n);
                !self.cache.contains_key(&key) && seen.insert(key)
            })
            .copied()
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
        let machine = &self.machine;
        let steps = self.steps;
        let mut computed: Vec<(usize, RunReport)> = if jobs == 1 {
            todo.iter()
                .enumerate()
                .map(|(i, &(p, v, n))| (i, compute_cell(machine, steps, p, v, n)))
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
                                let Some(&(p, v, n)) = todo.get(i) else {
                                    break;
                                };
                                out.push((i, compute_cell(machine, steps, p, v, n)));
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
        // Stable result ordering: cache insertion follows the input list no
        // matter which worker finished first.
        computed.sort_by_key(|(i, _)| *i);
        for (i, report) in computed {
            let (p, v, n) = todo[i];
            self.cache.insert((p.name.to_string(), v.name(), n), report);
        }
    }
}

/// Final field of every patch as exact bit patterns: what every
/// byte-identity proof in this crate compares.
pub fn bits(sim: &Simulation) -> Vec<Vec<u64>> {
    let level = sim.level();
    (0..level.n_patches())
        .map(|p| {
            let var = sim.solution(p);
            level
                .patch(p)
                .region
                .iter()
                .map(|c| var.get(c).to_bits())
                .collect()
        })
        .collect()
}

/// Run one model-mode sweep cell from scratch (the uncached work item).
fn compute_cell(
    machine: &MachineConfig,
    steps: u32,
    p: &ProblemSpec,
    variant: Variant,
    n_cgs: usize,
) -> RunReport {
    let level = p.level();
    let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
    let mut cfg = RunConfig::paper(variant, ExecMode::Model, n_cgs);
    cfg.steps = steps;
    cfg.machine = machine.clone();
    Simulation::new(level, app, cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{PROBLEMS, SMALL};

    #[test]
    fn prefetch_matches_serial_runs_bit_for_bit() {
        let cells: Vec<SweepCell> = vec![
            (SMALL, Variant::ACC_SYNC, 1),
            (SMALL, Variant::ACC_ASYNC, 1),
            (SMALL, Variant::ACC_ASYNC, 2),
            (&PROBLEMS[1], Variant::ACC_SIMD_ASYNC, 4),
            // Duplicate on purpose: prefetch must dedupe.
            (SMALL, Variant::ACC_ASYNC, 1),
        ];
        let mut parallel = Runner::new();
        parallel.prefetch(&cells, 4);
        let mut serial = Runner::new();
        for &(p, v, n) in &cells {
            serial.run(p, v, n);
        }
        for &(p, v, n) in &cells {
            let a = parallel.run(p, v, n).clone();
            let b = serial.run(p, v, n).clone();
            assert_eq!(a.step_end, b.step_end, "{} {} {}", p.name, v.name(), n);
            assert_eq!(a.total_time, b.total_time);
            assert_eq!(a.flops.total(), b.flops.total());
            assert_eq!(a.messages, b.messages);
            assert_eq!(a.events, b.events);
        }
    }
}
