//! The ledger of one repetition: what ran, what it counted, what it
//! checked.

use std::collections::BTreeMap;
use std::sync::Arc;

use sw_resilience::FaultCounts;
use uintah_core::{Application, Level, RunConfig, RunReport, Simulation};

use crate::span::Tracer;

/// Pass/fail tally of the output checks, with the first few failures
/// spelled out.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// Descriptions of the first failures (capped, for the result file).
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` is only rendered when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 16usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// FNV-1a offset basis: the fingerprint of nothing.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a fold of `bytes` into `h`.
pub fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a fold of `words` into `h`, the fingerprint that must repeat from
/// repetition to repetition.
pub fn fold(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, w| fold_bytes(h, &w.to_le_bytes()))
}

/// One simulation run through [`Rep::run_sim`].
pub struct SimRun {
    /// The finished simulation (solution, recorder, assignment).
    pub sim: Simulation,
    /// Its report.
    pub report: RunReport,
    /// Span job id shared by this simulation's spans.
    pub job: u64,
    /// No handle leaked (quiescent at the end of the run).
    pub ok: bool,
}

/// The ledger of one repetition.
pub struct Rep<'t> {
    /// Span sink (disabled in end-to-end runs).
    pub tr: &'t mut Tracer,
    /// Output checks of this repetition.
    pub checks: Checks,
    /// Simulations (campaign: job answers) attempted.
    pub sims: u64,
    /// Simulations that passed every check.
    pub sims_ok: u64,
    /// Sum of virtual time per step over the simulations, picoseconds.
    pub virt_step_ps: u128,
    /// Exact per-layer counts, by ledger name or by a private key the
    /// workload folds into a ledger metric afterwards.
    pub counts: BTreeMap<&'static str, f64>,
    /// Fingerprint of every deterministic output of the repetition.
    pub digest: u64,
    /// This is a set-up's warm-up repetition: outputs are also compared
    /// against exact solutions here (costly evaluations from outside the
    /// program), and become the reference the timed repetitions must
    /// reproduce bit for bit.
    pub reference: bool,
    /// Values only a reference repetition computes, by ledger name.
    pub reference_values: BTreeMap<&'static str, f64>,
    /// Host-time values the program reports about itself (latency
    /// percentiles), by ledger name: not exact, so not fingerprinted.
    pub observed: BTreeMap<&'static str, f64>,
    next_job: u64,
}

impl<'t> Rep<'t> {
    /// An empty ledger writing spans to `tr`.
    pub fn new(tr: &'t mut Tracer, reference: bool) -> Rep<'t> {
        Rep {
            tr,
            checks: Checks::default(),
            sims: 0,
            sims_ok: 0,
            virt_step_ps: 0,
            counts: BTreeMap::new(),
            digest: FNV_OFFSET,
            reference,
            reference_values: BTreeMap::new(),
            observed: BTreeMap::new(),
            next_job: 0,
        }
    }

    /// A fresh span job id.
    pub fn job(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job
    }

    /// Add `v` to the count called `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    /// Raise the reference value called `key` to at least `v`.
    pub fn reference_max(&mut self, key: &'static str, v: f64) {
        let e = self.reference_values.entry(key).or_insert(v);
        *e = e.max(v);
    }

    /// Fold words into the repetition fingerprint.
    pub fn fold(&mut self, words: &[u64]) {
        self.digest = fold(self.digest, words);
    }

    /// Count one finished simulation (or job answer).
    pub fn finish_sim(&mut self, passed: bool) {
        self.sims += 1;
        self.sims_ok += u64::from(passed);
    }

    /// Fold a fault ledger into the resilience counts.
    pub fn add_faults(&mut self, f: &FaultCounts) {
        self.add(
            "resilience.injected",
            (f.total_injected() + f.injected_worker_death + f.injected_worker_straggle) as f64,
        );
        self.add(
            "resilience.recovered",
            (f.recovered_offload + f.recovered_msg + f.recovered_job) as f64,
        );
        self.add("resilience.unrecovered", f.unrecovered as f64);
    }

    /// Construct and run one simulation under `core.construct` /
    /// `core.run` spans, fold its report into the counts, the virtual
    /// clock and the fingerprint, and check that it ended quiescent. The
    /// caller adds its own checks and then calls [`Rep::finish_sim`].
    pub fn run_sim(&mut self, level: Level, app: Arc<dyn Application>, cfg: RunConfig) -> SimRun {
        let job = self.job();
        let mut sim = self
            .tr
            .span("core.construct", job, |_| Simulation::new(level, app, cfg));
        let report = self.tr.span("core.run", job, |_| sim.run());
        self.fold_report(&report);
        let ok = self.checks.check(report.leaked_handles.is_empty(), || {
            format!(
                "job {job}: {} MPI handles leaked at end of run",
                report.leaked_handles.len()
            )
        });
        SimRun {
            sim,
            report,
            job,
            ok,
        }
    }

    /// Fold a run report into counts, virtual clock and fingerprint.
    pub fn fold_report(&mut self, r: &RunReport) {
        self.virt_step_ps += u128::from(r.time_per_step().0);
        self.add("sw-sim.events", r.events as f64);
        self.add("sw-mpi.msgs", r.messages as f64);
        self.add("sw-mpi.net_bytes", r.net_bytes as f64);
        self.add("sw-athread.serial_fallbacks", r.serial_fallbacks as f64);
        self.add("mpe_busy_ps", r.mpe_busy.0 as f64);
        self.add("cpe_busy_ps", r.cpe_busy.0 as f64);
        self.add("rank_time_ps", r.total_time.0 as f64 * r.n_ranks as f64);
        if let Some(f) = &r.faults {
            self.add_faults(f);
        }
        self.fold(&[r.events, r.messages, r.net_bytes, r.kernels, r.total_time.0]);
        let ends: Vec<u64> = r.step_end.iter().map(|t| t.0).collect();
        self.fold(&ends);
    }
}
