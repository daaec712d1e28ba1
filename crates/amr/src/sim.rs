//! The adaptive simulation driver.
//!
//! [`AmrSimulation`] advances every level of a [`MultiLevelGrid`] with one
//! global timestep. Each level-step runs through an ordinary one-step
//! [`Simulation`] — the full MPE/CPE scheduler stack, ghost exchange,
//! reductions, telemetry — with the level's current assignment pinned via
//! `assignment_override`, the global `dt_override`, and the absolute start
//! time `t0`. Between steps the driver does the AMR work the single-level
//! runtime never sees:
//!
//! * ghost-ring refresh (exact BC at the root, prolongation at fine
//!   levels), coarsest-first;
//! * restriction of fine solutions into covered parent cells,
//!   finest-first;
//! * flag recomputation and regridding (cadence or flag-drift triggered),
//!   with bit-exact state transfer for surviving fine cells;
//! * telemetry-driven rebalancing through the LPT balancer;
//! * re-verification of **every** recompiled task graph with `sw-analyze`
//!   (hazard analysis + static lookahead proof) — a regrid that compiles a
//!   hazardous plan is a bug, not a warning;
//! * hierarchy checkpoints (`SWCKPT01` + `AMRSECT1` trailer) a restart
//!   replays bit-identically, even across a regrid boundary.
//!
//! Everything the driver adds is a pure fixed-order `f64` pipeline over
//! deterministic inputs, so whole adaptive runs are bit-identical across
//! exec policies and engines — the same property the single-level stack
//! already has.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use sw_resilience::{AmrLevelRecord, AmrSection, Checkpoint, PatchRecord};
use uintah_core::grid::{iv, IntVec, Level, Region};
use uintah_core::task::plan::{build_rank_plans, RankPlan};
use uintah_core::task::Application;
use uintah_core::var::CcVar;
use uintah_core::{
    prove_lookahead_for_plans, verify_plans, ConfigError, ExecMode, LoadBalancer, MachineConfig,
    RunConfig, SchedulerOptions, Simulation, Variant,
};

use crate::hierarchy::{compute_flags, flag_window, refine_window, seeded_dilation, AmrLevel};
use crate::rebalance::{comm_bytes, compute_profile, lpt_from_profiles};
use crate::regrid::{abs_cell_lo, cadence_due, root_change_fraction, transfer_fine_state};
use crate::transfer::{prolong_at, restrict_level};
use crate::{AmrApplication, MultiLevelGrid, RegridPolicy};

/// Configuration of an adaptive run.
#[derive(Clone, Debug)]
pub struct AmrConfig {
    /// Scheduler/kernel variant for every level-step.
    pub variant: Variant,
    /// Ranks (= CGs). Levels with fewer patches than ranks run on a
    /// clamped rank count — determinism is preserved, parallelism shrinks.
    pub n_ranks: usize,
    /// Machine parameters shared by every level.
    pub machine: MachineConfig,
    /// Scheduler options (`verify` is forced off inside the per-step runs —
    /// the driver verifies each recompiled graph itself; `telemetry` is
    /// forced on — the rebalancer feeds on it).
    pub options: SchedulerOptions,
    /// Initial patch-to-rank policy (also used for freshly built levels).
    pub lb: LoadBalancer,
    /// AMR steps to run.
    pub steps: u32,
    /// Refinement and regrid policy.
    pub policy: RegridPolicy,
    /// Recompute assignments from telemetry cost profiles every N steps
    /// (`None` = never). Skipped on steps that regrid (the regrid already
    /// recompiles).
    pub rebalance_every: Option<u32>,
    /// Per-CG relative speeds (`None` = uniform). The LPT rebalancer
    /// divides loads by these.
    pub cg_speeds: Option<Vec<f64>>,
    /// Write a hierarchy checkpoint every N steps (`None` = never).
    pub ckpt_every: Option<u32>,
    /// Directory checkpoints go to (`amrNNNNN.ckpt`).
    pub ckpt_dir: Option<PathBuf>,
}

impl AmrConfig {
    /// A small default: 4 ranks, block assignment, no rebalancing, no
    /// checkpoints, single-level policy (callers override what they need).
    pub fn basic(variant: Variant, n_ranks: usize) -> AmrConfig {
        AmrConfig {
            variant,
            n_ranks,
            machine: MachineConfig::sw26010(),
            options: SchedulerOptions::default(),
            lb: LoadBalancer::Block,
            steps: 10,
            policy: RegridPolicy::single_level(),
            rebalance_every: None,
            cg_speeds: None,
            ckpt_every: None,
            ckpt_dir: None,
        }
    }
}

/// Counters of one adaptive run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AmrStats {
    /// AMR steps completed.
    pub steps: u32,
    /// Regrids that actually changed the hierarchy.
    pub regrids: u32,
    /// Telemetry-driven rebalances applied.
    pub rebalances: u32,
    /// Task graphs compiled and verified (per level, per recompile).
    pub recompiles: u64,
    /// Of those, how many sw-analyze passed with zero errors.
    pub verified_clean: u64,
    /// Total error findings across all verifications (must stay 0).
    pub verify_errors: u64,
    /// Static lookahead-proof violations across all verifications (0).
    pub lookahead_violations: u64,
    /// Total cell updates performed (interior cells advanced, summed over
    /// levels and steps) — the work metric the campaign compares against
    /// the uniformly fine run.
    pub cell_updates: u64,
    /// Checkpoints written.
    pub checkpoints: u32,
}

/// Per-step application shim: wraps one level's real application, sourcing
/// the initial condition from the driver's current level state and the
/// boundary condition from either the exact solution (root) or trilinear
/// prolongation of the parent's step-start state (fine levels).
struct SegmentApp {
    inner: Arc<dyn Application>,
    /// The level's full ghosted state at the step start (interior
    /// authoritative, ghost ring freshly refreshed by the driver).
    src: CcVar,
    /// Fine levels: the parent level and its ghosted step-start state, the
    /// donor of every boundary prolongation. `None` at the root (exact BC).
    donor: Option<(Level, CcVar)>,
}

impl Application for SegmentApp {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn ghost(&self) -> i64 {
        self.inner.ghost()
    }
    fn cost(&self) -> &dyn sw_athread::TileCostModel {
        self.inner.cost()
    }
    fn kernel(&self, simd: bool) -> &dyn sw_athread::CpeTileKernel {
        self.inner.kernel(simd)
    }
    fn bc_flops_per_cell(&self) -> u64 {
        self.inner.bc_flops_per_cell()
    }
    fn stable_dt(&self, level: &Level) -> f64 {
        self.inner.stable_dt(level)
    }
    fn init(&self, _level: &Level, region: &Region, var: &mut CcVar) {
        var.copy_region(&self.src, region);
    }
    fn fill_boundary(&self, level: &Level, region: &Region, var: &mut CcVar, t: f64) {
        match &self.donor {
            None => self.inner.fill_boundary(level, region, var, t),
            Some((plevel, pstate)) => {
                for c in region.iter() {
                    let (x, y, z) = level.cell_center(c);
                    var.set(c, prolong_at(pstate, plevel, x, y, z));
                }
            }
        }
    }
    fn reduce(&self, out: &CcVar) -> f64 {
        self.inner.reduce(out)
    }
    fn reduce_op(&self) -> sw_mpi::ReduceOp {
        self.inner.reduce_op()
    }
    fn model_reduction_value(&self) -> f64 {
        self.inner.model_reduction_value()
    }
    fn stages(&self) -> usize {
        self.inner.stages()
    }
    fn stage_kernel(&self, stage: usize, simd: bool) -> &dyn sw_athread::CpeTileKernel {
        self.inner.stage_kernel(stage, simd)
    }
    fn stage_cost(&self, stage: usize) -> &dyn sw_athread::TileCostModel {
        self.inner.stage_cost(stage)
    }
    fn stage_time(&self, stage: usize, t: f64, dt: f64) -> f64 {
        self.inner.stage_time(stage, t, dt)
    }
}

/// The adaptive multi-level simulation.
pub struct AmrSimulation {
    app: Arc<dyn AmrApplication>,
    cfg: AmrConfig,
    grid: MultiLevelGrid,
    /// Per-level ghosted state (region = `grid().grow(ghost)`); the
    /// interior is authoritative, the ring is scratch the driver refreshes
    /// at every step start.
    states: Vec<CcVar>,
    assignments: Vec<Arc<Vec<usize>>>,
    /// Per-level compute profile of the most recent step (telemetry ps).
    profiles: Vec<BTreeMap<usize, u64>>,
    dt: f64,
    step: u32,
    stats: AmrStats,
}

impl AmrSimulation {
    /// Build the initial hierarchy on `root` and verify its task graphs.
    ///
    /// The initial condition is evaluated exactly on every level (fine
    /// levels included — they exist from step 0 wherever the t=0 flags put
    /// them); the global dt is the application's stable dt on a virtual
    /// uniformly-finest level, so every level advances stably with one
    /// shared timestep.
    pub fn try_new(
        root: Level,
        app: Arc<dyn AmrApplication>,
        cfg: AmrConfig,
    ) -> Result<AmrSimulation, ConfigError> {
        // What a level-step's `RunConfig` would reject, rejected here too:
        // the driver's own cadences and rank count never reach one.
        if cfg.n_ranks == 0 {
            return Err(ConfigError::ZeroRanks);
        }
        for (which, every) in [
            ("ckpt_every", cfg.ckpt_every),
            ("rebalance_every", cfg.rebalance_every),
        ] {
            if every == Some(0) {
                return Err(ConfigError::ZeroInterval { which });
            }
        }
        let g = app.ghost();
        let pol = cfg.policy.clone();
        assert!(
            (1..=3).contains(&pol.max_levels),
            "1..=3 levels supported, got {}",
            pol.max_levels
        );

        // Global dt from the uniformly finest virtual level.
        let mut fine_layout = root.layout();
        for _ in 1..pol.max_levels {
            fine_layout = fine_layout * pol.ratio;
        }
        let finest = Level::try_with_domain(
            root.patch_extent(),
            fine_layout,
            root.phys_lo(),
            root.phys_hi(),
        )
        .expect("root domain is valid, so is its uniform refinement");
        let dt = app.stable_dt(&finest);

        // Root level: exact IC over the full ghosted grid.
        let root_app = app.make_level_app(&root);
        let mut state0 = CcVar::new(root.grid().grow(g));
        let r0 = state0.region();
        root_app.init(&root, &r0, &mut state0);
        let flags0 = compute_flags(&root, &state0, pol.flag_threshold);

        let mut sim = AmrSimulation {
            grid: MultiLevelGrid {
                levels: vec![AmrLevel::root(root)],
                flags: vec![flags0],
                epoch: 0,
            },
            states: vec![state0],
            assignments: Vec::new(),
            profiles: Vec::new(),
            dt,
            step: 0,
            stats: AmrStats::default(),
            app,
            cfg,
        };

        // Child levels from the t=0 flags, top-down.
        for depth in 1..pol.max_levels {
            let parent = &sim.grid.levels[depth - 1];
            let dilate = seeded_dilation(pol.seed, 0, depth);
            let Some(window) = flag_window(&parent.level, &sim.grid.flags[depth - 1], dilate)
            else {
                break;
            };
            let fine = refine_window(&parent.level, window, pol.ratio);
            let fine_app = sim.app.make_level_app(&fine);
            let mut st = CcVar::new(fine.grid().grow(g));
            let r = st.region();
            fine_app.init(&fine, &r, &mut st);
            let flags = compute_flags(&fine, &st, pol.flag_threshold);
            sim.grid.levels.push(AmrLevel {
                level: fine,
                ratio: pol.ratio,
                window,
            });
            sim.grid.flags.push(flags);
            sim.states.push(st);
        }

        for l in 0..sim.grid.n_levels() {
            let level = &sim.grid.levels[l].level;
            let nr = sim.effective_ranks(level);
            let a = Arc::new(sim.cfg.lb.assign(level, nr));
            sim.assignments.push(a);
            sim.profiles.push(BTreeMap::new());
        }

        // Validate every level's run configuration up front, then verify
        // the initial task graphs like any other recompile.
        for l in 0..sim.grid.n_levels() {
            let level = sim.grid.levels[l].level.clone();
            uintah_core::validate_config(&level, g, &sim.level_run_config(l, 0.0))?;
        }
        sim.verify_hierarchy();
        Ok(sim)
    }

    /// Panicking constructor (valid-config callers).
    pub fn new(root: Level, app: Arc<dyn AmrApplication>, cfg: AmrConfig) -> AmrSimulation {
        Self::try_new(root, app, cfg).unwrap_or_else(|e| panic!("invalid AMR configuration: {e}"))
    }

    /// Rank count a level actually runs on (clamped to its patch count).
    fn effective_ranks(&self, level: &Level) -> usize {
        self.cfg.n_ranks.min(level.n_patches())
    }

    /// The one-step `RunConfig` of level `l` starting at absolute time `t`.
    fn level_run_config(&self, l: usize, t: f64) -> RunConfig {
        let level = &self.grid.levels[l].level;
        let nr = self.effective_ranks(level);
        let mut rc = RunConfig::paper(self.cfg.variant, ExecMode::Functional, nr);
        rc.steps = 1;
        rc.lb = self.cfg.lb;
        rc.machine = self.cfg.machine.clone();
        rc.options = self.cfg.options;
        rc.options.verify = false; // the driver verifies every recompile itself
        rc.options.telemetry = true; // the rebalancer feeds on the event stream
        rc.cg_speeds = self
            .cfg
            .cg_speeds
            .as_ref()
            .map(|s| s.iter().copied().take(nr).collect());
        rc.assignment_override = Some(self.assignments[l].clone());
        rc.dt_override = Some(self.dt);
        rc.t0 = t;
        rc
    }

    /// Compiled plans of level `l` under its current assignment.
    fn level_plans(&self, l: usize) -> Vec<RankPlan> {
        let level = &self.grid.levels[l].level;
        let nr = self.effective_ranks(level);
        build_rank_plans(level, &self.assignments[l], nr, self.app.ghost())
    }

    /// Verify every level's compiled task graph: hazard analysis plus the
    /// static lookahead proof, both counted into the stats. Called after
    /// the initial build and after **every** regrid or rebalance.
    fn verify_hierarchy(&mut self) {
        for l in 0..self.grid.n_levels() {
            let level = self.grid.levels[l].level.clone();
            let plans = self.level_plans(l);
            let stages = self.app.make_level_app(&level).stages();
            let report = verify_plans(
                self.app.name(),
                &level,
                &plans,
                self.app.ghost(),
                stages,
                self.cfg.variant,
                &self.cfg.options,
                &self.cfg.machine,
            );
            self.stats.recompiles += 1;
            if report.is_clean() {
                self.stats.verified_clean += 1;
            }
            self.stats.verify_errors += report.errors() as u64;
            let (_proof, findings) = prove_lookahead_for_plans(
                &plans,
                &self.cfg.machine,
                self.cfg.machine.net_latency.0,
            );
            self.stats.lookahead_violations += findings.len() as u64;
        }
    }

    /// Refresh every level's ghost ring at absolute time `t`,
    /// coarsest-first: the root ring gets the exact solution, fine rings
    /// are prolonged from the (already refreshed) parent state.
    fn refresh_ghosts(&mut self, t: f64) {
        let g = self.app.ghost();
        for l in 0..self.grid.n_levels() {
            let level = self.grid.levels[l].level.clone();
            let grid = level.grid();
            let ring: Vec<IntVec> = grid.grow(g).iter().filter(|c| !grid.contains(*c)).collect();
            if l == 0 {
                let st = &mut self.states[0];
                for c in ring {
                    let (x, y, z) = level.cell_center(c);
                    st.set(c, self.app.exact(x, y, z, t));
                }
            } else {
                let (coarse, fine) = self.states.split_at_mut(l);
                let plevel = &self.grid.levels[l - 1].level;
                let pstate = &coarse[l - 1];
                let st = &mut fine[0];
                for c in ring {
                    let (x, y, z) = level.cell_center(c);
                    st.set(c, prolong_at(pstate, plevel, x, y, z));
                }
            }
        }
    }

    /// Advance one AMR step: refresh rings, run every level for one global
    /// dt, restrict fine solutions into their parents, then regrid /
    /// rebalance / checkpoint as the policy dictates.
    pub fn step(&mut self) {
        let t = f64::from(self.step) * self.dt;
        self.refresh_ghosts(t);

        // Advance each level (coarsest-first; levels are independent
        // within the step — coupling happens through rings and restriction).
        for l in 0..self.grid.n_levels() {
            let level = self.grid.levels[l].level.clone();
            let rc = self.level_run_config(l, t);
            let donor = if l == 0 {
                None
            } else {
                Some((
                    self.grid.levels[l - 1].level.clone(),
                    self.states[l - 1].clone(),
                ))
            };
            let seg = SegmentApp {
                inner: self.app.make_level_app(&level),
                src: self.states[l].clone(),
                donor,
            };
            let mut sim = Simulation::new(level.clone(), Arc::new(seg), rc);
            sim.run();
            for p in level.patches() {
                let sol = sim.solution(p.id).clone();
                self.states[l].copy_region(&sol, &p.region);
            }
            self.profiles[l] = compute_profile(&sim.recorder().snapshot());
        }

        // Restriction, finest-first: covered parent cells take the fine
        // cell average.
        for l in (1..self.grid.n_levels()).rev() {
            let (coarse, fine) = self.states.split_at_mut(l);
            let entry = &self.grid.levels[l];
            let wlo = entry.window_cell_lo(&self.grid.levels[l - 1].level);
            restrict_level(&mut coarse[l - 1], &fine[0], &entry.level, wlo, entry.ratio);
        }

        self.stats.cell_updates += self.grid.cells();
        self.step += 1;
        self.stats.steps = self.step;

        // Regrid?
        let pol = self.cfg.policy.clone();
        let fresh = compute_flags(
            &self.grid.levels[0].level,
            &self.states[0],
            pol.flag_threshold,
        );
        let drift = root_change_fraction(&self.grid.flags[0], &fresh);
        let trigger = pol.max_levels > 1
            && (cadence_due(self.step, pol.regrid_every) || drift >= pol.regrid_frac);
        let mut regridded = false;
        if trigger {
            regridded = self.regrid(fresh);
        }

        // Rebalance? (Skipped on regrid steps — the regrid already
        // recompiled fresh graphs.)
        if !regridded {
            if let Some(every) = self.cfg.rebalance_every {
                if cadence_due(self.step, every) {
                    for l in 0..self.grid.n_levels() {
                        let level = self.grid.levels[l].level.clone();
                        let nr = self.effective_ranks(&level);
                        let speeds: Vec<f64> = match &self.cfg.cg_speeds {
                            Some(s) => s.iter().copied().take(nr).collect(),
                            None => vec![1.0; nr],
                        };
                        let bytes = comm_bytes(&self.level_plans(l));
                        self.assignments[l] = Arc::new(lpt_from_profiles(
                            level.n_patches(),
                            &self.profiles[l],
                            &bytes,
                            &self.cfg.machine,
                            &speeds,
                        ));
                    }
                    self.stats.rebalances += 1;
                    self.verify_hierarchy();
                }
            }
        }

        // Checkpoint?
        if let (Some(every), Some(dir)) = (self.cfg.ckpt_every, self.cfg.ckpt_dir.clone()) {
            if cadence_due(self.step, every) {
                let ckpt = self.checkpoint();
                let path = dir.join(format!("amr{:05}.ckpt", self.step));
                ckpt.write_to(&path).expect("checkpoint write");
                self.stats.checkpoints += 1;
            }
        }
    }

    /// Rebuild the hierarchy from fresh root flags. Returns whether any
    /// window actually changed (only then does the regrid count, recompile,
    /// and re-verify; an unchanged rebuild keeps levels, states, and
    /// assignments bit-identical by construction).
    fn regrid(&mut self, fresh_root_flags: Vec<bool>) -> bool {
        let pol = self.cfg.policy.clone();
        let g = self.app.ghost();
        let next_epoch = self.grid.epoch + 1;

        let mut new_levels = vec![self.grid.levels[0].clone()];
        let mut new_flags = vec![fresh_root_flags];
        let mut new_states = vec![self.states[0].clone()];
        let mut new_assignments = vec![self.assignments[0].clone()];
        let mut new_profiles = vec![self.profiles[0].clone()];

        for depth in 1..pol.max_levels {
            let dilate = seeded_dilation(pol.seed, next_epoch, depth);
            let Some(window) =
                flag_window(&new_levels[depth - 1].level, &new_flags[depth - 1], dilate)
            else {
                break;
            };
            let fine = refine_window(&new_levels[depth - 1].level, window, pol.ratio);
            let entry = AmrLevel {
                level: fine.clone(),
                ratio: pol.ratio,
                window,
            };
            // Absolute fine-cell origin of the new entry (prefix + itself).
            let mut probe: Vec<AmrLevel> = new_levels.clone();
            probe.push(entry.clone());
            let new_abs = abs_cell_lo(&probe, depth);
            let old = if depth < self.grid.n_levels() {
                Some((
                    &self.grid.levels[depth].level,
                    abs_cell_lo(&self.grid.levels, depth),
                    &self.states[depth],
                ))
            } else {
                None
            };
            let donor = (&new_levels[depth - 1].level, &new_states[depth - 1]);
            let st = transfer_fine_state(&fine, new_abs, old, donor, g);
            let flags = compute_flags(&fine, &st, pol.flag_threshold);
            // Unchanged window at this depth: keep the assignment and the
            // measured profile (so a rebalanced placement survives a no-op
            // rebuild); otherwise a fresh static assignment for a fresh
            // level, whose profile starts empty.
            let same = depth < self.grid.n_levels() && self.grid.levels[depth].window == window;
            let asn = if same {
                self.assignments[depth].clone()
            } else {
                let nr = self.effective_ranks(&fine);
                Arc::new(self.cfg.lb.assign(&fine, nr))
            };
            new_profiles.push(if same {
                self.profiles[depth].clone()
            } else {
                BTreeMap::new()
            });
            new_levels.push(entry);
            new_flags.push(flags);
            new_states.push(st);
            new_assignments.push(asn);
        }

        let changed = new_levels.len() != self.grid.n_levels()
            || new_levels
                .iter()
                .zip(&self.grid.levels)
                .any(|(a, b)| a.window != b.window);

        self.grid.levels = new_levels;
        self.grid.flags = new_flags;
        self.grid.epoch = next_epoch;
        self.states = new_states;
        self.assignments = new_assignments;
        self.profiles = new_profiles;

        if changed {
            self.stats.regrids += 1;
            self.verify_hierarchy();
        }
        changed
    }

    /// Run the configured number of steps and return the final stats.
    pub fn run(&mut self) -> AmrStats {
        for _ in 0..self.cfg.steps {
            self.step();
        }
        self.stats.clone()
    }

    /// Capture the full hierarchy as a canonical [`Checkpoint`] (patch
    /// interiors labeled by level index + the `AMRSECT1` trailer).
    pub fn checkpoint(&self) -> Checkpoint {
        let mut patches = Vec::new();
        for (l, entry) in self.grid.levels.iter().enumerate() {
            for p in entry.level.patches() {
                let data: Vec<u64> = self.states[l]
                    .pack(&p.region)
                    .into_iter()
                    .map(f64::to_bits)
                    .collect();
                patches.push(PatchRecord {
                    patch: p.id as u64,
                    rank: self.assignments[l][p.id] as u64,
                    label: l as u64,
                    lo: [p.region.lo.x, p.region.lo.y, p.region.lo.z],
                    hi: [p.region.hi.x, p.region.hi.y, p.region.hi.z],
                    data,
                });
            }
        }
        let levels = self
            .grid
            .levels
            .iter()
            .zip(&self.assignments)
            .map(|(e, a)| {
                let pe = e.level.patch_extent();
                let ly = e.level.layout();
                let lo = e.level.phys_lo();
                let hi = e.level.phys_hi();
                AmrLevelRecord {
                    patch_extent: [pe.x, pe.y, pe.z],
                    layout: [ly.x, ly.y, ly.z],
                    phys_lo_bits: [lo[0].to_bits(), lo[1].to_bits(), lo[2].to_bits()],
                    phys_hi_bits: [hi[0].to_bits(), hi[1].to_bits(), hi[2].to_bits()],
                    window_lo: [e.window.lo.x, e.window.lo.y, e.window.lo.z],
                    ratio: e.ratio as u64,
                    assignment: a.iter().map(|&r| r as u64).collect(),
                }
            })
            .collect();
        let flags = self.grid.flags.iter().flatten().copied().collect();
        let mut ckpt = Checkpoint {
            step: self.step,
            t_ps: 0, // AMR time is step * dt, both in the trailer
            n_ranks: self.cfg.n_ranks as u32,
            patches,
            amr: Some(AmrSection {
                dt_bits: self.dt.to_bits(),
                epoch: self.grid.epoch,
                regrids: self.stats.regrids,
                levels,
                flags,
            }),
        };
        ckpt.canonicalize();
        ckpt
    }

    /// Rebuild a simulation from an AMR checkpoint: levels, windows,
    /// assignments, flags, epoch, dt, and every patch's exact bits. The
    /// continuation replays bit-identically because every later decision
    /// (flags, windows, dilation, profiles, LPT) is a pure function of the
    /// restored state and counters.
    pub fn restore_from(
        app: Arc<dyn AmrApplication>,
        cfg: AmrConfig,
        ckpt: &Checkpoint,
    ) -> AmrSimulation {
        let sect = ckpt.amr.as_ref().expect("not an AMR checkpoint");
        let g = app.ghost();
        let mut levels = Vec::new();
        let mut assignments = Vec::new();
        for (i, rec) in sect.levels.iter().enumerate() {
            let pe = iv(
                rec.patch_extent[0],
                rec.patch_extent[1],
                rec.patch_extent[2],
            );
            let ly = iv(rec.layout[0], rec.layout[1], rec.layout[2]);
            let lo = rec.phys_lo_bits.map(f64::from_bits);
            let hi = rec.phys_hi_bits.map(f64::from_bits);
            let level = Level::with_domain(pe, ly, lo, hi);
            let ratio = rec.ratio as i64;
            let wlo = iv(rec.window_lo[0], rec.window_lo[1], rec.window_lo[2]);
            let window = if i == 0 {
                Region::of_extent(level.layout())
            } else {
                Region::new(wlo, wlo + iv(ly.x / ratio, ly.y / ratio, ly.z / ratio))
            };
            assignments.push(Arc::new(
                rec.assignment
                    .iter()
                    .map(|&r| r as usize)
                    .collect::<Vec<_>>(),
            ));
            levels.push(AmrLevel {
                level,
                ratio,
                window,
            });
        }
        // States from the patch records (ring left zero; the next step's
        // refresh rewrites it before anything reads it).
        let mut states: Vec<CcVar> = levels
            .iter()
            .map(|e| CcVar::new(e.level.grid().grow(g)))
            .collect();
        for rec in &ckpt.patches {
            let l = rec.label as usize;
            let region = Region::new(
                iv(rec.lo[0], rec.lo[1], rec.lo[2]),
                iv(rec.hi[0], rec.hi[1], rec.hi[2]),
            );
            let vals: Vec<f64> = rec.data.iter().copied().map(f64::from_bits).collect();
            states[l].unpack(&region, &vals);
        }
        // Flags split by per-level patch counts, in level order.
        let mut flags = Vec::new();
        let mut at = 0usize;
        for e in &levels {
            let n = e.level.n_patches();
            flags.push(sect.flags[at..at + n].to_vec());
            at += n;
        }
        let n_levels = levels.len();
        let mut sim = AmrSimulation {
            grid: MultiLevelGrid {
                levels,
                flags,
                epoch: sect.epoch,
            },
            states,
            assignments,
            profiles: vec![BTreeMap::new(); n_levels],
            dt: f64::from_bits(sect.dt_bits),
            step: ckpt.step,
            stats: AmrStats {
                steps: ckpt.step,
                regrids: sect.regrids,
                ..AmrStats::default()
            },
            app,
            cfg,
        };
        sim.verify_hierarchy();
        sim
    }

    /// The current hierarchy.
    pub fn grid(&self) -> &MultiLevelGrid {
        &self.grid
    }

    /// The global timestep.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Steps completed.
    pub fn step_count(&self) -> u32 {
        self.step
    }

    /// Run counters so far.
    pub fn stats(&self) -> &AmrStats {
        &self.stats
    }

    /// Level `l`'s ghosted state (interior authoritative).
    pub fn state(&self, l: usize) -> &CcVar {
        &self.states[l]
    }

    /// Current patch→rank assignment of level `l`.
    pub fn assignment(&self, l: usize) -> &[usize] {
        &self.assignments[l]
    }

    /// Per-patch compute profile (telemetry ps) of level `l` from the most
    /// recent step — what the rebalancer feeds on, and what the campaign
    /// uses to score assignments.
    pub fn profile(&self, l: usize) -> &BTreeMap<usize, u64> {
        &self.profiles[l]
    }

    /// Every level's interior solution as exact bit patterns (x-fastest
    /// per level) — the cross-policy / restart identity witness.
    pub fn solution_bits(&self) -> Vec<Vec<u64>> {
        self.grid
            .levels
            .iter()
            .zip(&self.states)
            .map(|(e, st)| {
                st.pack(&e.level.grid())
                    .into_iter()
                    .map(f64::to_bits)
                    .collect()
            })
            .collect()
    }

    /// Max |state − exact| at the current time, per level, measured only on
    /// cells **not** covered by a finer level (the composite-grid error).
    pub fn max_error(&self) -> Vec<f64> {
        let t = f64::from(self.step) * self.dt;
        let mut out = Vec::new();
        for (l, entry) in self.grid.levels.iter().enumerate() {
            let child_cover: Option<Region> = self.grid.levels.get(l + 1).map(|c| {
                let wlo = c.window_cell_lo(&entry.level);
                let fe = c.level.grid().extent();
                Region::new(
                    wlo,
                    wlo + iv(fe.x / c.ratio, fe.y / c.ratio, fe.z / c.ratio),
                )
            });
            let mut e = 0.0f64;
            for c in entry.level.grid().iter() {
                if child_cover.as_ref().is_some_and(|w| w.contains(c)) {
                    continue;
                }
                let (x, y, z) = entry.level.cell_center(c);
                e = e.max((self.states[l].get(c) - self.app.exact(x, y, z, t)).abs());
            }
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::{heat_exact, HeatApp};

    struct AmrHeat {
        alpha: f64,
    }

    impl AmrApplication for AmrHeat {
        fn name(&self) -> &str {
            "heat3d-amr"
        }
        fn ghost(&self) -> i64 {
            1
        }
        fn make_level_app(&self, level: &Level) -> Arc<dyn Application> {
            Arc::new(HeatApp::new(level, self.alpha))
        }
        fn exact(&self, x: f64, y: f64, z: f64, t: f64) -> f64 {
            heat_exact(self.alpha, x, y, z, t)
        }
    }

    fn heat() -> Arc<dyn AmrApplication> {
        Arc::new(AmrHeat { alpha: 0.1 })
    }

    fn root() -> Level {
        Level::new(iv(4, 4, 4), iv(2, 2, 2))
    }

    #[test]
    fn single_level_amr_matches_the_direct_simulation_bitwise() {
        let app = heat();
        let mut cfg = AmrConfig::basic(Variant::ACC_SIMD_ASYNC, 4);
        cfg.steps = 3;
        let mut amr = AmrSimulation::new(root(), app.clone(), cfg);
        let stats = amr.run();
        assert_eq!(stats.steps, 3);
        assert_eq!(stats.regrids, 0);
        assert_eq!(stats.verify_errors, 0);
        assert_eq!(stats.lookahead_violations, 0);
        assert_eq!(stats.verified_clean, stats.recompiles);

        // The same three steps through the plain controller, with the same
        // forced dt: bit-identical interiors.
        let level = root();
        let mut rc = RunConfig::paper(Variant::ACC_SIMD_ASYNC, ExecMode::Functional, 4);
        rc.steps = 3;
        rc.dt_override = Some(amr.dt());
        let level_app = app.make_level_app(&level);
        let mut direct = Simulation::new(level.clone(), level_app, rc);
        direct.run();
        let amr_bits = &amr.solution_bits()[0];
        let mut direct_bits = Vec::new();
        let mut whole = CcVar::new(level.grid());
        for p in level.patches() {
            whole.copy_region(direct.solution(p.id), &p.region);
        }
        for v in whole.pack(&level.grid()) {
            direct_bits.push(v.to_bits());
        }
        assert_eq!(
            amr_bits, &direct_bits,
            "AMR with one level degenerates to the plain runtime"
        );
        // And the result is actually a decent heat solution.
        assert!(amr.max_error()[0] < 1e-2, "{:?}", amr.max_error());
    }

    fn adaptive_cfg(steps: u32) -> AmrConfig {
        let mut cfg = AmrConfig::basic(Variant::ACC_SIMD_ASYNC, 4);
        cfg.steps = steps;
        cfg.policy = RegridPolicy {
            max_levels: 2,
            ratio: 2,
            // The decaying mode's max undivided gradient starts around
            // 0.17 on this grid: flag the steep (outer) patches only.
            flag_threshold: 0.12,
            regrid_every: 2,
            regrid_frac: 0.25,
            seed: 7,
        };
        cfg.rebalance_every = Some(3);
        cfg
    }

    #[test]
    fn adaptive_run_builds_two_levels_and_verifies_every_recompile() {
        let mut amr = AmrSimulation::new(root(), heat(), adaptive_cfg(6));
        assert_eq!(amr.grid().n_levels(), 2, "t=0 flags refine somewhere");
        let stats = amr.run();
        assert_eq!(stats.steps, 6);
        assert_eq!(stats.verify_errors, 0, "recompiled graphs must be clean");
        assert_eq!(stats.lookahead_violations, 0);
        assert_eq!(stats.verified_clean, stats.recompiles);
        assert!(stats.recompiles >= 2, "initial build verifies every level");
        assert!(stats.cell_updates > 6 * 8 * 8 * 8, "fine level adds work");
        // Composite error stays sane on both levels.
        for e in amr.max_error() {
            assert!(e < 5e-2, "{:?}", amr.max_error());
        }
    }

    #[test]
    fn adaptive_runs_are_deterministic() {
        let mut a = AmrSimulation::new(root(), heat(), adaptive_cfg(5));
        let mut b = AmrSimulation::new(root(), heat(), adaptive_cfg(5));
        let sa = a.run();
        let sb = b.run();
        assert_eq!(sa, sb);
        assert_eq!(a.solution_bits(), b.solution_bits());
        let (mut ca, mut cb) = (a.checkpoint(), b.checkpoint());
        ca.canonicalize();
        cb.canonicalize();
        assert_eq!(ca.to_bytes(), cb.to_bytes(), "checkpoints byte-identical");
    }

    #[test]
    fn restart_across_a_regrid_boundary_replays_bitwise() {
        let dir = std::env::temp_dir().join(format!("sw-amr-restart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Uninterrupted run: 6 steps, checkpoint at step 3.
        let mut cfg = adaptive_cfg(6);
        cfg.ckpt_every = Some(3);
        cfg.ckpt_dir = Some(dir.clone());
        let mut full = AmrSimulation::new(root(), heat(), cfg.clone());
        let full_stats = full.run();
        assert!(full_stats.checkpoints >= 2);

        // Restart from step 3 and run the remaining steps. The regrid
        // cadence fires at steps 4 and 6 — the continuation crosses at
        // least one regrid consideration.
        let ckpt = Checkpoint::read_from(&dir.join("amr00003.ckpt")).unwrap();
        assert_eq!(ckpt.step, 3);
        let mut resumed = AmrSimulation::restore_from(heat(), cfg, &ckpt);
        for _ in 0..3 {
            resumed.step();
        }
        assert_eq!(resumed.step_count(), 6);
        assert_eq!(
            full.solution_bits(),
            resumed.solution_bits(),
            "restart replays the tail bit-identically"
        );
        assert_eq!(full.grid().epoch, resumed.grid().epoch);
        assert_eq!(full.grid().n_levels(), resumed.grid().n_levels());
        // The final checkpoints agree byte-for-byte too.
        assert_eq!(
            full.checkpoint().to_bytes(),
            resumed.checkpoint().to_bytes()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebalance_applies_a_fresh_lpt_assignment() {
        let mut cfg = adaptive_cfg(4);
        cfg.rebalance_every = Some(2);
        // Regrid cadence off: isolate the rebalance path.
        cfg.policy.regrid_every = 0;
        cfg.policy.regrid_frac = 2.0;
        cfg.cg_speeds = Some(vec![1.0, 1.0, 1.0, 0.5]);
        let mut amr = AmrSimulation::new(root(), heat(), cfg);
        let before = amr.assignment(0).to_vec();
        let stats = amr.run();
        assert!(stats.rebalances >= 1);
        assert_eq!(stats.verify_errors, 0);
        // The assignment is still valid: every rank owns a patch.
        let after = amr.assignment(0).to_vec();
        assert_eq!(after.len(), before.len());
        for r in 0..4 {
            assert!(after.contains(&r), "rank {r} lost all patches: {after:?}");
        }
    }

    #[test]
    fn try_new_rejects_what_a_run_config_rejects() {
        let reject = |edit: fn(&mut AmrConfig)| {
            let mut cfg = AmrConfig::basic(Variant::ACC_ASYNC, 4);
            edit(&mut cfg);
            AmrSimulation::try_new(root(), heat(), cfg).err()
        };
        assert_eq!(reject(|c| c.n_ranks = 0), Some(ConfigError::ZeroRanks));
        assert_eq!(
            reject(|c| c.rebalance_every = Some(0)),
            Some(ConfigError::ZeroInterval {
                which: "rebalance_every"
            })
        );
        assert_eq!(
            reject(|c| c.ckpt_every = Some(0)),
            Some(ConfigError::ZeroInterval {
                which: "ckpt_every"
            })
        );
        assert_eq!(reject(|c| c.rebalance_every = Some(1)), None);
    }
}
