//! The simulation controller: owns the machine, the communicator, and one
//! MPE scheduler per rank, and advances them through the shared
//! discrete-event loop until all timesteps complete.
//!
//! This is the piece that, on the real machine, is the `mpirun` of one
//! scheduler process per CG; here all ranks advance in one deterministic
//! virtual timeline.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

use sw_mpi::{CommConfig, ModeledAllreduce, MpiWorld, SharedMpi};
use sw_resilience::{Checkpoint, FaultPlan, FaultStats, PatchRecord};
use sw_sim::{
    LookaheadViolation, Machine, MachineConfig, MachineCtx, MachineEvent, SimDur, SimTime,
};
use sw_telemetry::{Event, Lane, Recorder};

use crate::grid::{iv, Level, PatchId, Region};
use crate::lb::LoadBalancer;
use crate::schedule::rank::{RankSched, ReduceCtx, StepCtx, LABEL_U};
use crate::schedule::variant::{ExecMode, SchedulerOptions, Variant};
use crate::sim::report::RunReport;
use crate::task::app::Application;
use crate::task::plan::{build_rank_plans, resolve_assignment};
use crate::var::CcVar;

/// Configuration of one run.
///
/// Equality is full structural equality over every field (the campaign
/// cache's round-trip tests rely on it), and [`core::fmt::Display`] renders
/// the canonical cache-key line — see [`crate::sim::canon`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Scheduler/kernel variant (paper Table IV).
    pub variant: Variant,
    /// Functional or model execution.
    pub exec: ExecMode,
    /// Timesteps (the paper runs 10, §VII-A).
    pub steps: u32,
    /// Ranks = CGs.
    pub n_ranks: usize,
    /// Patch-to-rank policy.
    pub lb: LoadBalancer,
    /// Machine parameters.
    pub machine: MachineConfig,
    /// Extension features beyond the paper's implementation (§IX).
    pub options: SchedulerOptions,
    /// Recompile the task graph with measurement-driven load balancing every
    /// N steps (paper §V-C step 4); `None` = the paper's static assignment.
    pub rebalance_every: Option<u32>,
    /// Seeded kernel-duration noise fraction ("instabilities in the
    /// machine", §VII-A); 0 = exact.
    pub noise_frac: f64,
    /// Noise seed (repeat with different seeds and take the best, as the
    /// paper does).
    pub noise_seed: u64,
    /// Per-CG relative speeds (heterogeneous hardware); `None` = uniform.
    pub cg_speeds: Option<Vec<f64>>,
    /// Write a warehouse checkpoint every N steps (`None` = never). Ranks
    /// park at the boundary (same mechanism as rebalancing) so the snapshot
    /// is globally consistent.
    pub ckpt_every: Option<u32>,
    /// Directory checkpoints are written to (`stepNNNNN.ckpt`); required
    /// for `ckpt_every` to have an effect.
    pub ckpt_dir: Option<PathBuf>,
    /// Advance the simulated ranks concurrently with the conservative-PDES
    /// engine (DESIGN.md §14). `false` drains the *same* windowed schedule
    /// on the controller thread — the two are bit-identical by
    /// construction, which the torture campaign's `pdes_bit_identical`
    /// oracle enforces.
    pub pdes: bool,
    /// Worker threads for the PDES engine; `None` auto-detects the host's
    /// available parallelism. `Some(0)` is rejected by validation
    /// ([`crate::ConfigError::ZeroThreads`]). Orthogonal to
    /// [`SchedulerOptions::exec_policy`], which parallelizes the
    /// *functional kernel execution inside one rank* — `threads`
    /// parallelizes *across ranks*; combining both oversubscribes the host
    /// (each PDES worker may itself fan out tiles) and is legal but rarely
    /// faster.
    pub threads: Option<usize>,
    /// Conservative lookahead window in picoseconds; `None` derives it
    /// from the calibrated MPI latency (`machine.net_latency`) — the
    /// minimum cross-rank delay the model can produce, since jitter and
    /// fault delays only ever *add* to it. Values above that latency are
    /// rejected ([`crate::ConfigError::BadLookahead`]): a wider window
    /// could deliver a message into a rank's already-drained past.
    pub pdes_lookahead_ps: Option<u64>,
    /// Forced per-window serial drain orders for the DPOR interleaving
    /// explorer (DESIGN.md §15): entry `w` is the rank permutation window
    /// `w` drains in (windows beyond the list use ascending order). Forces
    /// the serial engine — the point is to *replay* one interleaving
    /// deterministically, not to race threads. `None` (the default) drains
    /// ascending.
    pub pdes_order: Option<Arc<Vec<Vec<usize>>>>,
    /// Record the cross-CG message edges `(src, dst)` merged at each window
    /// barrier, exposed through [`Simulation::window_edges`] — the
    /// dependency structure the DPOR explorer permutes.
    pub window_log: bool,
    /// Explicit patch→rank assignment (one entry per patch), bypassing
    /// [`RunConfig::lb`] — the AMR rebalancer computes assignments from
    /// telemetry cost profiles and feeds them back here. Validation rejects
    /// wrong lengths, out-of-range ranks, and empty ranks
    /// ([`crate::ConfigError::AssignmentLen`] /
    /// [`crate::ConfigError::AssignmentRankRange`] /
    /// [`crate::ConfigError::AssignmentEmptyRank`]).
    pub assignment_override: Option<Arc<Vec<usize>>>,
    /// Force the timestep instead of the application's stable dt (AMR
    /// advances every level with one global dt chosen for the finest
    /// level). Must be finite and positive
    /// ([`crate::ConfigError::BadDt`]); keeping it at or below the
    /// application's stable dt is the caller's stability obligation.
    pub dt_override: Option<f64>,
    /// Physical time of step 0 (default 0.0). AMR runs a simulation
    /// per inter-regrid segment; segments after the first start mid-run, and
    /// boundary fills plus time-dependent kernel coefficients must see
    /// absolute time. Must be finite and non-negative
    /// ([`crate::ConfigError::BadT0`]).
    pub t0: f64,
    /// Communication-layer knobs (DESIGN.md §18): endpoints per rank,
    /// small-message aggregation thresholds, the explicit eager/rendezvous
    /// crossover, and the dedicated progress lane. The default
    /// ([`CommConfig::default`]) reproduces the historical single-endpoint
    /// host-progressed layer bit-for-bit. Validation rejects zero or
    /// excessive endpoint counts, half-configured aggregation, aggregation
    /// combined with the fault plane, and crossovers below the control
    /// packet size ([`crate::ConfigError::BadEndpoints`] /
    /// [`crate::ConfigError::BadAggregation`] /
    /// [`crate::ConfigError::AggregationWithFaults`] /
    /// [`crate::ConfigError::BadCrossover`]).
    pub comm: CommConfig,
}

impl RunConfig {
    /// The paper's standard setup: 10 steps, block load balancing, the
    /// calibrated SW26010 machine.
    pub fn paper(variant: Variant, exec: ExecMode, n_ranks: usize) -> Self {
        RunConfig {
            variant,
            exec,
            steps: 10,
            n_ranks,
            lb: LoadBalancer::Block,
            machine: MachineConfig::sw26010(),
            options: SchedulerOptions::default(),
            rebalance_every: None,
            noise_frac: 0.0,
            noise_seed: 0,
            cg_speeds: None,
            ckpt_every: None,
            ckpt_dir: None,
            pdes: false,
            threads: None,
            pdes_lookahead_ps: None,
            pdes_order: None,
            window_log: false,
            assignment_override: None,
            dt_override: None,
            t0: 0.0,
            comm: CommConfig::default(),
        }
    }
}

/// A constructed simulation, ready to run.
///
/// The example below defines a complete (if tiny) application from scratch -
/// a kernel that decays the field by 1% per step - and runs it through the
/// asynchronous Sunway scheduler on two simulated CGs:
///
/// ```
/// use std::sync::Arc;
/// use sw_athread::{cells, CpeTileKernel, Dims3, TileCostModel, TileCtx};
/// use uintah_core::grid::{iv, Level, Region};
/// use uintah_core::task::Application;
/// use uintah_core::var::CcVar;
/// use uintah_core::{ExecMode, RunConfig, Simulation, Variant};
///
/// struct Decay;
/// impl CpeTileKernel for Decay {
///     fn ghost(&self) -> usize { 1 }
///     fn compute(&self, ctx: &mut TileCtx<'_>) {
///         let d = ctx.tile.dims;
///         for z in 0..d.2 { for y in 0..d.1 { for x in 0..d.0 {
///             ctx.out_at(x, y, z, 0.99 * ctx.in_at(x, y, z, 0, 0, 0));
///         }}}
///     }
/// }
/// impl TileCostModel for Decay {
///     fn ghost(&self) -> usize { 1 }
///     fn flops(&self, d: Dims3) -> u64 { cells(d) }
///     fn exp_flops(&self, _d: Dims3) -> u64 { 0 }
///     fn exp_calls(&self, _d: Dims3) -> u64 { 0 }
/// }
/// impl Application for Decay {
///     fn name(&self) -> &str { "decay" }
///     fn ghost(&self) -> i64 { 1 }
///     fn cost(&self) -> &dyn TileCostModel { self }
///     fn kernel(&self, _simd: bool) -> &dyn CpeTileKernel { self }
///     fn bc_flops_per_cell(&self) -> u64 { 1 }
///     fn stable_dt(&self, _level: &Level) -> f64 { 1.0 }
///     fn init(&self, _l: &Level, region: &Region, var: &mut CcVar) {
///         for c in region.iter() { var.set(c, 1.0); }
///     }
///     fn fill_boundary(&self, _l: &Level, region: &Region, var: &mut CcVar, t: f64) {
///         for c in region.iter() { var.set(c, 0.99f64.powf(t)); }
///     }
/// }
///
/// let level = Level::new(iv(4, 4, 4), iv(2, 1, 1));
/// let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 2);
/// cfg.steps = 3;
/// let mut sim = Simulation::new(level, Arc::new(Decay), cfg);
/// let report = sim.run();
/// assert_eq!(report.kernels, 2 * 3);
/// // Every interior cell decayed 1% per step.
/// let v = sim.solution(0).get(iv(1, 1, 1));
/// assert!((v - 0.99f64.powi(3)).abs() < 1e-12);
/// ```
pub struct Simulation {
    level: Level,
    app: Arc<dyn Application>,
    /// The run's configuration, shared with every rank's scheduler.
    cfg: Arc<RunConfig>,
    assignment: Vec<usize>,
    machine: Machine,
    mpi: SharedMpi,
    /// The reduction hub: every completed barrier merge lives here; ranks
    /// read it through [`ReduceCtx::result_at`]. Hub instances run with a
    /// disabled recorder — contribution telemetry is recorded rank-side.
    reductions: BTreeMap<u32, ModeledAllreduce>,
    /// Per-rank reduction outboxes `(step, value, instant)`, drained into
    /// the hub at each window barrier in rank order.
    reduce_out: Vec<Vec<(u32, f64, SimTime)>>,
    /// Steps whose completed reduction already broadcast its wakeup timer.
    announced: BTreeSet<u32>,
    ranks: Vec<RankSched>,
    /// `sw_athread::serial_fallback_count()` sampled when `run` starts; the
    /// report carries the delta, i.e. the demotions this run caused.
    fallback_base: u64,
    /// Structured telemetry sink, threaded through the machine, the MPI
    /// world, and every scheduler when `SchedulerOptions::telemetry` is set;
    /// a disabled no-op recorder otherwise.
    recorder: Recorder,
    /// Shared deterministic fault plan (`SchedulerOptions::faults`), threaded
    /// through the machine (DMA errors, rank jitter), the MPI world
    /// (drop/dup/delay + the reliable ack layer), and every scheduler
    /// (keyed spawns, deadlines, retries). `None` when faults are off.
    faults: Option<Arc<FaultPlan>>,
    /// Checkpoint staged via [`Simulation::restore_from`], consumed by the
    /// next `run`.
    restore: Option<Checkpoint>,
    /// Per-window cross-CG message edges `(src, dst)` captured at the
    /// barrier merges of the last run, when [`RunConfig::window_log`] is
    /// set. Empty otherwise.
    window_edges: Vec<Vec<(usize, usize)>>,
}

impl Simulation {
    /// Build a simulation of `app` on `level` under `cfg`.
    ///
    /// # Panics
    /// Panics with the typed [`crate::ConfigError`] message if the
    /// configuration is invalid; [`Simulation::try_new`] is the
    /// non-panicking form.
    pub fn new(level: Level, app: Arc<dyn Application>, cfg: RunConfig) -> Self {
        Self::try_new(level, app, cfg).unwrap_or_else(|e| panic!("invalid run configuration: {e}"))
    }

    /// Build a simulation of `app` on `level` under `cfg`, rejecting
    /// invalid configurations with a typed [`crate::ConfigError`] instead
    /// of tripping an assert deep inside the scheduler. This is the
    /// constructor-level gate the torture harness (DESIGN.md §13) drives.
    pub fn try_new(
        level: Level,
        app: Arc<dyn Application>,
        cfg: RunConfig,
    ) -> Result<Self, crate::ConfigError> {
        crate::config::validate_config(&level, app.ghost(), &cfg)?;
        let cfg = Arc::new(cfg);
        let assignment = resolve_assignment(&level, &cfg);
        let mut machine = Machine::new(cfg.machine.clone(), cfg.n_ranks);
        machine.set_noise(cfg.noise_frac, cfg.noise_seed);
        if let Some(speeds) = &cfg.cg_speeds {
            assert_eq!(speeds.len(), cfg.n_ranks, "one speed per CG");
            for (cg, &s) in speeds.iter().enumerate() {
                machine.set_cg_speed(cg, s);
            }
        }
        let mut mpi = MpiWorld::new(cfg.n_ranks);
        mpi.set_comm(cfg.comm);
        // Telemetry: one recorder shared by every layer. Functional mode
        // also captures wall-clock offsets (host time is meaningful there).
        let recorder = if cfg.options.telemetry {
            if cfg.exec == ExecMode::Functional {
                Recorder::with_wall_clock(cfg.n_ranks)
            } else {
                Recorder::new(cfg.n_ranks)
            }
        } else {
            Recorder::off()
        };
        machine.set_recorder(recorder.clone());
        mpi.set_recorder(recorder.clone());
        // Fault plane: one shared seeded plan for every layer.
        let faults = cfg.options.faults.map(|fc| Arc::new(FaultPlan::new(fc)));
        if let Some(plan) = &faults {
            machine.set_fault_plan(Arc::clone(plan));
            mpi.set_fault_plan(Arc::clone(plan));
        }
        let plans = build_rank_plans(&level, &assignment, cfg.n_ranks, app.ghost());
        if cfg.options.verify {
            Self::verify_or_panic(&level, &plans, &*app, &cfg);
        }
        let ranks = plans
            .into_iter()
            .enumerate()
            .map(|(r, plan)| {
                RankSched::new(
                    Arc::clone(&cfg),
                    r,
                    plan,
                    &level,
                    recorder.clone(),
                    faults.clone(),
                )
            })
            .collect();
        let reduce_out = vec![Vec::new(); cfg.n_ranks];
        Ok(Simulation {
            level,
            app,
            cfg,
            assignment,
            machine,
            mpi: SharedMpi::new(mpi),
            reductions: BTreeMap::new(),
            reduce_out,
            announced: BTreeSet::new(),
            ranks,
            fallback_base: sw_athread::serial_fallback_count(),
            recorder,
            faults,
            restore: None,
            window_edges: Vec::new(),
        })
    }

    /// The telemetry recorder of this simulation. Disabled (and empty)
    /// unless the run was configured with `SchedulerOptions::telemetry`.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The shared fault plan (and its counters), when faults are enabled.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Stage a restart: the next [`Simulation::run`] resumes from the
    /// checkpointed step with the checkpointed warehouses instead of the
    /// initial conditions. The virtual clock restarts at zero; restart
    /// equality is asserted on the *field data*, which is byte-identical to
    /// an uninterrupted run.
    ///
    /// # Panics
    /// Panics if the checkpoint's rank count does not match this run's.
    pub fn restore_from(&mut self, ckpt: Checkpoint) {
        assert_eq!(
            ckpt.n_ranks as usize, self.cfg.n_ranks,
            "checkpoint rank count mismatch"
        );
        self.restore = Some(ckpt);
    }

    /// The grid level.
    pub fn level(&self) -> &Level {
        &self.level
    }

    /// The patch-to-rank assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Run to completion and produce the report.
    ///
    /// The engine is a conservative windowed PDES (DESIGN.md §14): every
    /// rank owns an event-queue shard, and each iteration drains the window
    /// `[W, W + L)` — `W` the globally earliest pending event, `L` the
    /// lookahead — on every shard independently. Cross-rank deliveries are
    /// parked in per-shard outboxes and merged at the window barrier; the
    /// calibrated model guarantees they land at or after the window end,
    /// which the merge asserts. With `cfg.pdes` the shards of one window
    /// drain on scoped worker threads; either way the schedule — and the
    /// resulting `RunReport`, telemetry, and fault streams — is
    /// bit-identical, because ranks cannot observe each other inside a
    /// window.
    ///
    /// # Panics
    /// Panics on deadlock (events exhausted with unfinished ranks) — which
    /// would indicate a scheduler bug, never a legal outcome — and on a
    /// lookahead violation ([`Simulation::try_run`] is the non-panicking
    /// form of the latter).
    pub fn run(&mut self) -> RunReport {
        self.try_run().unwrap_or_else(|v| panic!("{v}"))
    }

    /// [`Simulation::run`], but a lookahead violation — a cross-CG message
    /// merged inside the window just drained — is returned as the typed
    /// [`LookaheadViolation`] instead of a panic. Unreachable through
    /// validated configurations (the constructor rejects lookaheads wider
    /// than the minimum modeled cross-rank latency, and the static proof
    /// [`crate::schedule::verify::prove_lookahead_for_plans`] refines that
    /// bound per channel); this is the runtime backstop behind both.
    ///
    /// On `Err` the machine stops at the offending barrier: the simulation
    /// must not be advanced further.
    pub fn try_run(&mut self) -> Result<RunReport, LookaheadViolation> {
        // Other simulations may have run in this process since `new`;
        // re-baseline so the report only counts this run's demotions.
        self.fallback_base = sw_athread::serial_fallback_count();
        // A fresh run never inherits reduction state (a restored run
        // re-contributes the steps it replays).
        self.reductions.clear();
        self.announced.clear();
        self.reduce_out.iter_mut().for_each(Vec::clear);
        self.window_edges.clear();
        self.machine.set_merge_log(self.cfg.window_log);
        let Simulation {
            level,
            app,
            cfg,
            assignment,
            machine,
            mpi,
            reductions,
            reduce_out,
            announced,
            ranks,
            recorder,
            faults,
            restore,
            window_edges,
            ..
        } = self;
        let n_ranks = cfg.n_ranks;
        let lookahead = SimDur(cfg.pdes_lookahead_ps.unwrap_or(cfg.machine.net_latency.0));
        assert!(lookahead.0 > 0, "PDES lookahead must be positive");
        assert!(
            lookahead <= cfg.machine.net_latency,
            "PDES lookahead {}ps exceeds the minimum modeled cross-rank latency {}ps: \
             a message could be delivered inside an already-drained window \
             (lookahead violation)",
            lookahead.0,
            cfg.machine.net_latency.0,
        );
        // `threads` caps the PDES fan-out; the serial engine ignores it.
        // On a 1-thread host the PDES engine degenerates to the serial
        // drain order — same schedule, honestly no speedup.
        let threads = if cfg.pdes {
            cfg.threads
                .unwrap_or_else(rayon::current_num_threads)
                .max(1)
        } else {
            1
        };
        macro_rules! ctx {
            ($r:expr) => {
                &mut StepCtx {
                    machine: machine.ctx($r),
                    mpi: &*mpi,
                    reduce: ReduceCtx {
                        merged: &*reductions,
                        outbox: &mut reduce_out[$r],
                    },
                    level,
                    app: &**app,
                    n_ranks,
                }
            };
        }
        // Restart: distribute the checkpointed warehouse to its owning
        // ranks before initialization.
        if let Some(ck) = restore.take() {
            let mut per_rank: Vec<Vec<(PatchId, CcVar)>> = vec![Vec::new(); n_ranks];
            for rec in &ck.patches {
                let p = rec.patch as usize;
                let r = assignment[p];
                let region = Region::new(
                    iv(rec.lo[0], rec.lo[1], rec.lo[2]),
                    iv(rec.hi[0], rec.hi[1], rec.hi[2]),
                );
                let mut var = CcVar::new(region);
                assert_eq!(
                    var.data().len(),
                    rec.data.len(),
                    "checkpoint payload size mismatch for patch {p}"
                );
                for (d, &bits) in var.data_mut().iter_mut().zip(&rec.data) {
                    *d = f64::from_bits(bits);
                }
                per_rank[r].push((p, var));
            }
            for (r, sched) in ranks.iter_mut().enumerate() {
                sched.prime_restore(ck.step, std::mem::take(&mut per_rank[r]));
            }
            if let Some(plan) = &*faults {
                FaultStats::bump(&plan.stats.checkpoints_restored);
            }
            recorder.record(
                0,
                0,
                Lane::Mpe,
                Event::CheckpointRestored {
                    step: ck.step as usize,
                },
            );
        }
        for (r, sched) in ranks.iter_mut().enumerate() {
            sched.init_run(ctx!(r));
        }
        machine
            .merge_outboxes(None)
            .expect("merge without a window floor cannot violate lookahead");
        // Init/boundary merges are not window barriers; keep them out of
        // the per-window edge log.
        machine.take_merge_log();
        // Window index, for the DPOR explorer's forced drain orders.
        let mut widx = 0usize;
        loop {
            // Window barrier, part 2: fold every rank's reduction outbox
            // into the hub (rank order — a fixed, schedule-independent
            // float accumulation order) and broadcast wakeup timers for
            // newly completed reductions. Runs before the deadlock check:
            // a pending contribution *is* forward progress.
            Self::merge_reductions(cfg, &**app, machine, reductions, reduce_out, announced);
            // §V-C step 4: if every rank parked at a step boundary, write a
            // checkpoint and/or recompile the task graph, then resume.
            if !ranks.is_empty() && ranks.iter().all(|r| r.holding().is_some()) {
                let step = ranks[0].step();
                if cfg.ckpt_every.is_some_and(|n| step.is_multiple_of(n)) {
                    Self::write_checkpoint(cfg, assignment, ranks, faults, recorder);
                }
                if cfg.rebalance_every.is_some_and(|n| step.is_multiple_of(n)) {
                    Self::rebalance(
                        level, app, cfg, assignment, machine, mpi, reductions, reduce_out, ranks,
                    );
                } else {
                    let held = ranks
                        .iter()
                        .filter_map(|r| r.holding())
                        .max()
                        .unwrap_or(SimTime::ZERO);
                    for (r, rank) in ranks.iter_mut().enumerate() {
                        rank.resume_held(ctx!(r), held);
                    }
                }
                machine
                    .merge_outboxes(None)
                    .expect("merge without a window floor cannot violate lookahead");
                machine.take_merge_log();
                continue;
            }
            if ranks.iter().all(|r| r.is_done()) {
                // A cadence boundary that coincides with the final step
                // still owes its checkpoint: `end_step` finishes the rank
                // *before* the boundary check, so nobody parks — write the
                // snapshot here instead of silently skipping it.
                let step = ranks[0].step();
                if cfg
                    .ckpt_every
                    .is_some_and(|n| step > 0 && step.is_multiple_of(n))
                {
                    Self::write_checkpoint(cfg, assignment, ranks, faults, recorder);
                }
                break;
            }
            let Some(wstart) = machine.peek_time() else {
                let states: Vec<String> = ranks
                    .iter()
                    .map(|r| {
                        format!(
                            "rank step={} done={} holding={}",
                            r.step(),
                            r.is_done(),
                            r.holding().is_some()
                        )
                    })
                    .collect();
                panic!(
                    "deadlock: event queue empty with unfinished ranks: {}",
                    states.join("; ")
                );
            };
            let wend = wstart + lookahead;
            // A forced drain order (the DPOR explorer replaying one
            // interleaving) always takes the serial path: the point is a
            // deterministic schedule, not thread races.
            let forced = cfg
                .pdes_order
                .as_ref()
                .and_then(|orders| orders.get(widx).cloned());
            // Shards with no event inside the window have nothing to do;
            // spawning threads is only worth it when at least two shards
            // are active (a 1-thread host always takes the inline path,
            // and never pays for the count).
            let fan_out = forced.is_none()
                && threads > 1
                && (0..n_ranks)
                    .filter(|&r| machine.shard_peek(r).is_some_and(|t| t < wend))
                    .nth(1)
                    .is_some();
            if !fan_out {
                let drain = |r: usize| {
                    Self::drain_rank(
                        &mut ranks[r],
                        &mut machine.ctx(r),
                        mpi,
                        reductions,
                        &mut reduce_out[r],
                        level,
                        &**app,
                        n_ranks,
                        wend,
                        cfg.comm.progress_lane,
                    );
                };
                match forced {
                    None => (0..n_ranks).for_each(drain),
                    Some(order) => {
                        debug_assert_eq!(
                            {
                                let mut o = order.clone();
                                o.sort_unstable();
                                o
                            },
                            (0..n_ranks).collect::<Vec<_>>(),
                            "forced drain order must be a permutation of the ranks"
                        );
                        order.into_iter().for_each(drain);
                    }
                }
            } else {
                let mut work: Vec<_> = machine
                    .ctxs()
                    .into_iter()
                    .zip(ranks.iter_mut().zip(reduce_out.iter_mut()))
                    .collect();
                let chunk = work.len().div_ceil(threads);
                let (mpi, reductions, level, app) = (&*mpi, &*reductions, &*level, &**app);
                let progress_lane = cfg.comm.progress_lane;
                rayon::scope(|s| {
                    for slice in work.chunks_mut(chunk) {
                        s.spawn(move || {
                            for (mctx, (sched, outbox)) in slice.iter_mut() {
                                Self::drain_rank(
                                    sched,
                                    mctx,
                                    mpi,
                                    reductions,
                                    outbox,
                                    level,
                                    app,
                                    n_ranks,
                                    wend,
                                    progress_lane,
                                );
                            }
                        });
                    }
                });
            }
            // Window barrier, part 1: deliver cross-rank messages. Any
            // delivery inside the window just drained is a lookahead
            // violation — unreachable through validated configs (the
            // debug assert is the old panic), surfaced as a typed error
            // otherwise.
            if let Err(v) = machine.merge_outboxes(Some(wend)) {
                debug_assert!(
                    false,
                    "PDES lookahead violation past config validation and the \
                     static proof: {v}"
                );
                return Err(v);
            }
            if cfg.window_log {
                window_edges.push(machine.take_merge_log());
            }
            widx += 1;
        }
        // Every isend/irecv must have been matched and retired by the end of
        // the run; a leaked handle is a scheduler bug. Release builds carry
        // the same data in `RunReport::leaked_handles`. With faults enabled
        // this is promoted to a *hard* error in every profile: the reliable
        // layer's whole contract is that injected losses drain to quiescence.
        if cfg.options.faults.is_some() {
            assert!(
                mpi.quiescent(),
                "faulted run finished with leaked MPI handles (rank, tag): {:?}",
                mpi.leaked()
            );
        } else {
            debug_assert!(
                mpi.quiescent(),
                "run finished with leaked MPI handles (rank, tag): {:?}",
                mpi.leaked()
            );
        }
        if let Some(m) = self.recorder.metrics() {
            m.serial_fallbacks
                .add(sw_athread::serial_fallback_count().saturating_sub(self.fallback_base));
        }
        Ok(self.report())
    }

    /// The cross-CG message edges `(src_cg, dst_cg)` merged at each window
    /// barrier of the last run — one entry per drained window, recorded
    /// when [`RunConfig::window_log`] is set (empty otherwise). This is the
    /// window dependency structure the DPOR explorer builds its
    /// interleaving classes from.
    pub fn window_edges(&self) -> &[Vec<(usize, usize)>] {
        &self.window_edges
    }

    /// Drain one rank's shard for the current window: pop every event
    /// strictly before `wend` and hand it to the rank's scheduler. Safe to
    /// run concurrently with other ranks' drains — the shard context only
    /// reaches its own queue/CG, the communicator is internally
    /// synchronized (and its operations for different ranks commute inside
    /// a window), and reduction contributions go to a private outbox.
    ///
    /// With `progress_lane` (the dedicated-progress-lane machine variant,
    /// [`CommConfig::progress_lane`]) every wire delivery is immediately
    /// followed by a protocol progression attributed to [`Lane::Progress`]:
    /// the modeled comm thread advances handshakes and harvests payloads at
    /// delivery time instead of waiting for the MPE's next library call —
    /// the "progression requires the host" rule of paper §V relaxed.
    #[allow(clippy::too_many_arguments)]
    fn drain_rank(
        sched: &mut RankSched,
        machine: &mut MachineCtx<'_>,
        mpi: &SharedMpi,
        merged: &BTreeMap<u32, ModeledAllreduce>,
        outbox: &mut Vec<(u32, f64, SimTime)>,
        level: &Level,
        app: &dyn Application,
        n_ranks: usize,
        wend: SimTime,
        progress_lane: bool,
    ) {
        let mut ctx = StepCtx {
            machine: machine.reborrow(),
            mpi,
            reduce: ReduceCtx { merged, outbox },
            level,
            app,
            n_ranks,
        };
        let rank = ctx.machine.rank();
        while let Some((t, ev)) = ctx.machine.pop_before(wend) {
            match ev {
                MachineEvent::NetDeliver { token, .. } => {
                    mpi.on_wire(token);
                    if progress_lane {
                        mpi.progress_on(rank, &mut ctx.machine, t, Lane::Progress);
                    }
                    sched.on_wake(&mut ctx, t);
                }
                MachineEvent::KernelDone { .. } | MachineEvent::Timer { .. } => {
                    sched.on_wake(&mut ctx, t)
                }
            }
        }
    }

    /// Window barrier: drain every rank's reduction outbox into the hub in
    /// rank order (the float accumulation order is therefore fixed by rank
    /// id, never by drain scheduling) and broadcast one wakeup timer per
    /// rank for each reduction that just completed. Hub instances carry a
    /// disabled recorder — contribution telemetry was already recorded
    /// rank-side at contribution time.
    fn merge_reductions(
        cfg: &RunConfig,
        app: &dyn Application,
        machine: &mut Machine,
        reductions: &mut BTreeMap<u32, ModeledAllreduce>,
        reduce_out: &mut [Vec<(u32, f64, SimTime)>],
        announced: &mut BTreeSet<u32>,
    ) {
        let n = cfg.n_ranks;
        for (r, out) in reduce_out.iter_mut().enumerate().take(n) {
            if out.is_empty() {
                continue;
            }
            for (step, value, at) in std::mem::take(out) {
                let red = reductions
                    .entry(step)
                    .or_insert_with(|| ModeledAllreduce::new(&cfg.machine, n, app.reduce_op()));
                red.contribute(r, value, at);
            }
        }
        let complete: Vec<(u32, SimTime)> = reductions
            .iter()
            .filter(|(s, _)| !announced.contains(s))
            .filter_map(|(&s, red)| red.result_at().map(|(at, _)| (s, at)))
            .collect();
        for (step, at) in complete {
            announced.insert(step);
            // The result reaches every rank at `at`; for n >= 2 the
            // dissemination hops put `at` beyond the current window end, so
            // the timer is always schedulable on every shard.
            for r in 0..n {
                machine.timer_at(r, at, 0);
            }
        }
    }

    /// Write a globally consistent warehouse checkpoint while every rank
    /// holds at the step boundary. Never panics on I/O failure — a
    /// checkpoint is an optimization, not a correctness requirement.
    fn write_checkpoint(
        cfg: &RunConfig,
        assignment: &[usize],
        ranks: &[RankSched],
        faults: &Option<Arc<FaultPlan>>,
        recorder: &Recorder,
    ) {
        let Some(dir) = cfg.ckpt_dir.as_ref() else {
            return;
        };
        let step = ranks[0].step();
        let held = ranks
            .iter()
            .filter_map(|r| r.holding())
            .max()
            .unwrap_or(SimTime::ZERO);
        let mut ck = Checkpoint {
            step,
            t_ps: held.0,
            n_ranks: cfg.n_ranks as u32,
            patches: Vec::new(),
            amr: None,
        };
        if cfg.exec == ExecMode::Functional {
            for (p, &r) in assignment.iter().enumerate() {
                let var = ranks[r].solution(p);
                let reg = var.region();
                ck.patches.push(PatchRecord {
                    patch: p as u64,
                    rank: r as u64,
                    label: LABEL_U as u64,
                    lo: [reg.lo.x, reg.lo.y, reg.lo.z],
                    hi: [reg.hi.x, reg.hi.y, reg.hi.z],
                    data: var.data().iter().map(|v| v.to_bits()).collect(),
                });
            }
        }
        ck.canonicalize();
        let path = dir.join(format!("step{step:05}.ckpt"));
        match ck.write_to(&path) {
            Ok(bytes) => {
                if let Some(plan) = faults {
                    FaultStats::bump(&plan.stats.checkpoints_written);
                }
                recorder.record(
                    0,
                    held.0,
                    Lane::Mpe,
                    Event::CheckpointWritten {
                        step: step as usize,
                        bytes,
                    },
                );
            }
            Err(e) => eprintln!(
                "warning: checkpoint write to {} failed: {e}",
                path.display()
            ),
        }
    }

    /// Recompile the task graph: gather measured per-patch costs, compute a
    /// measurement-driven LPT assignment over the CGs' relative speeds,
    /// migrate patch data, rebuild every rank's plan, and release the ranks
    /// once the migration traffic has (modeled) completed.
    #[allow(clippy::too_many_arguments)]
    fn rebalance(
        level: &Level,
        app: &Arc<dyn Application>,
        cfg: &RunConfig,
        assignment: &mut Vec<usize>,
        machine: &mut Machine,
        mpi: &SharedMpi,
        reductions: &BTreeMap<u32, ModeledAllreduce>,
        reduce_out: &mut [Vec<(u32, f64, SimTime)>],
        ranks: &mut [RankSched],
    ) {
        let n_ranks = cfg.n_ranks;
        // Gather costs and the global hold instant.
        let mut costs: BTreeMap<usize, sw_sim::SimDur> = BTreeMap::new();
        let mut held_at = sw_sim::SimTime::ZERO;
        for r in ranks.iter_mut() {
            held_at = held_at.max(r.holding().expect("all ranks hold here"));
            for (p, c) in r.take_patch_costs() {
                *costs.entry(p).or_default() += c;
            }
        }
        let speeds: Vec<f64> = (0..n_ranks).map(|cg| machine.cg_speed(cg)).collect();
        let new_assignment = crate::lb::lpt_assign(&costs, &speeds);
        assert_eq!(new_assignment.len(), level.n_patches());

        // Migration: every patch changing ranks ships its ghosted solution.
        // Modeled as bulk transfers serialized per rank (pack + wire).
        let g = app.ghost();
        let mut moved_bytes = vec![0u64; n_ranks];
        let mut migrated: Vec<Vec<(usize, crate::var::CcVar)>> = vec![Vec::new(); n_ranks];
        for p in 0..level.n_patches() {
            let (from, to) = (assignment[p], new_assignment[p]);
            if from != to {
                let bytes = level.patch(p).region.grow(g).cells() * 8;
                moved_bytes[from] += bytes;
                moved_bytes[to] += bytes;
                if cfg.exec == crate::schedule::variant::ExecMode::Functional {
                    let var = ranks[from]
                        .take_solution(p)
                        .expect("migrating patch lost its data");
                    migrated[to].push((p, var));
                }
            }
        }
        let worst = moved_bytes.iter().copied().max().unwrap_or(0);
        let release_at = held_at + cfg.machine.mpe_copy_time(worst) + cfg.machine.net_time(worst);

        *assignment = new_assignment;
        // The recompiled task graph must satisfy the same static guarantees
        // as the initial one.
        let plans = build_rank_plans(level, assignment, n_ranks, g);
        if cfg.options.verify {
            Self::verify_or_panic(level, &plans, &**app, cfg);
        }
        for ((r, rank), plan) in ranks.iter_mut().enumerate().zip(plans) {
            let vars = std::mem::take(&mut migrated[r]);
            let mut ctx = StepCtx {
                machine: machine.ctx(r),
                mpi,
                reduce: ReduceCtx {
                    merged: reductions,
                    outbox: &mut reduce_out[r],
                },
                level,
                app: &**app,
                n_ranks,
            };
            rank.resume_rebalanced(&mut ctx, plan, vars, release_at);
        }
    }

    /// Run the static schedule verifier (`sw-analyze`) over freshly
    /// compiled plans, panicking with the full report on any
    /// error-severity finding. The `SchedulerOptions::verify` gate.
    fn verify_or_panic(
        level: &Level,
        plans: &[crate::task::plan::RankPlan],
        app: &dyn Application,
        cfg: &RunConfig,
    ) {
        let report = crate::schedule::verify::verify_plans(
            app.name(),
            level,
            plans,
            app.ghost(),
            app.stages(),
            cfg.variant,
            &cfg.options,
            &cfg.machine,
        );
        assert!(
            report.is_clean(),
            "schedule verification failed ({} errors):\n{}",
            report.errors(),
            report.render()
        );
    }

    /// Build the report from the finished run.
    fn report(&self) -> RunReport {
        let steps = self.cfg.steps;
        // Restored runs execute fewer steps than `cfg.steps`; index over
        // what actually ran (entry `s` is the s-th step *this run* executed).
        let executed = self
            .ranks
            .iter()
            .map(|r| r.stats.step_end.len())
            .max()
            .unwrap_or(0);
        let mut step_end = Vec::with_capacity(executed);
        for s in 0..executed {
            let t = self
                .ranks
                .iter()
                .filter_map(|r| r.stats.step_end.get(s).copied())
                .max()
                .unwrap_or(SimTime::ZERO);
            step_end.push(t);
        }
        let total_time = step_end
            .last()
            .copied()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO);
        let mut mpe_busy = SimDur::ZERO;
        let mut cpe_busy = SimDur::ZERO;
        for r in 0..self.cfg.n_ranks {
            mpe_busy += self.machine.cg(r).mpe.busy_total();
            cpe_busy += self.machine.cg(r).cpe_busy_total();
        }
        RunReport {
            variant: self.cfg.variant.name(),
            steps,
            n_ranks: self.cfg.n_ranks,
            step_end,
            total_time,
            flops: self.machine.total_flops(),
            messages: self.machine.stats().messages,
            net_bytes: self.machine.stats().net_bytes,
            kernels: self.ranks.iter().map(|r| r.stats.kernels).sum(),
            events: self.machine.events_popped(),
            mpe_busy,
            cpe_busy,
            serial_fallbacks: sw_athread::serial_fallback_count()
                .saturating_sub(self.fallback_base),
            leaked_handles: self.mpi.leaked(),
            faults: self.faults.as_ref().map(|p| p.stats.snapshot()),
        }
    }

    /// Per-rank statistics of a finished run (kernel spans, step ends).
    pub fn rank_stats(&self, rank: usize) -> &crate::schedule::rank::RankStats {
        &self.ranks[rank].stats
    }

    /// Functional-mode access to the final solution of a patch.
    pub fn solution(&self, patch: PatchId) -> &CcVar {
        let rank = self.assignment[patch];
        self.ranks[rank].solution(patch)
    }

    /// Every patch's final solution as exact bit patterns, x-fastest per
    /// patch: the byte-identity witness of a functional run.
    pub fn solution_bits(&self) -> Vec<Vec<u64>> {
        (0..self.level.n_patches())
            .map(|p| {
                let var = self.solution(p);
                self.level
                    .patch(p)
                    .region
                    .iter()
                    .map(|c| var.get(c).to_bits())
                    .collect()
            })
            .collect()
    }

    /// Final simulated physical time.
    pub fn final_time(&self) -> f64 {
        let dt = self
            .cfg
            .dt_override
            .unwrap_or_else(|| self.app.stable_dt(&self.level));
        self.cfg.t0 + self.cfg.steps as f64 * dt
    }
}

/// Convenience: build and run in one call.
pub fn run_simulation(level: Level, app: Arc<dyn Application>, cfg: RunConfig) -> RunReport {
    Simulation::new(level, app, cfg).run()
}
