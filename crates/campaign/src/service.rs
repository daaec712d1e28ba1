//! The campaign service: seeded deduplicating queue, sharded worker pool,
//! content-addressed cache, worker-fault recovery, reproducibility oracle.
//!
//! # Exactly-once discipline
//!
//! Every accepted job owns one slot in the record table. A slot is written
//! exactly once — by a cache hit, a worker completion, an inline run, or a
//! terminal failure. A second completion for the same slot increments the
//! `duplicated` count (a hard red flag in the summary); an empty slot at
//! drain increments `lost`. Both must be zero for a healthy campaign, and
//! the CI stage asserts they are.
//!
//! # Worker faults
//!
//! The pool reuses the `sw-resilience` discipline one level up: a seeded
//! [`FaultPlan`] decides crashes and stragglers as a pure function of
//! `(seed, job key, attempt)` — the job's 128-bit content hash is packed
//! into an [`OffloadKey`], so the verdict is independent of pool size,
//! shard routing, and completion order. A crash is a real `panic!` unwound
//! inside the worker thread and caught per job; the coordinator detects
//! it, backs off exponentially ([`FaultPlan::backoff_ps`], wall-scaled),
//! re-runs the job next round up to `max_attempts`, blacklists a worker
//! after repeated crashes, and degrades to inline execution when no worker
//! is left.
//!
//! # Determinism contract
//!
//! [`JobRecord`]s contain only schedule-independent bytes (submission
//! index, content key, canonical line, result record), so two runs of the
//! same job set produce byte-identical record arrays whatever the pool
//! size, cache state or fault plan — the property the ci.sh campaign stage
//! `cmp`s across its three runs. The drain runs in rounds (see
//! [`Service::drain`]) and routes a round before it starts, so the service
//! counters are a function of the jobs and the [`CampaignConfig`] too;
//! only the host clocks (latencies, `wall_ms`) vary between runs.

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sw_resilience::{fold, FaultConfig, FaultCounts, FaultPlan, FaultStats, OffloadKey, SlotFault};
use sw_telemetry::json::{arr, fixed, obj, Layout};
use sw_telemetry::{perfetto, Hist};
use uintah_core::{
    canonical_job, fnv128, validate_config, Application, ExecMode, Level, RunConfig, Simulation,
};

use crate::store::{ResultStore, StoreError};

/// Builds the application a worker runs on a given level. The factory
/// crosses thread boundaries; the `Arc<dyn Application>` it returns does
/// not (each worker builds its own). It sees only the level, so a job whose
/// `variant.exp` is not the app's [`Application::exp`] fails as `config
/// rejected` instead of running the app's library.
pub type AppFactory = Arc<dyn Fn(&Level) -> Arc<dyn Application> + Send + Sync>;

/// Keyed-draw domain words (job generation uses 0x5EAF in `job.rs`).
const D_SHARD: u64 = 0x5EAF_0001;
const D_ORACLE: u64 = 0x5EAF_0002;

/// A worker is blacklisted after this many crashes.
const BLACKLIST_AFTER: u64 = 2;

/// Campaign service configuration.
#[derive(Clone)]
pub struct CampaignConfig {
    /// Worker threads. `0` runs every job inline in the coordinator.
    pub workers: usize,
    /// Service seed: shard routing and oracle sampling key off it.
    pub seed: u64,
    /// Content-addressed cache directory; `None` keeps it in memory.
    pub cache_dir: Option<PathBuf>,
    /// Fault plan for the *worker pool* (crashes/stragglers), independent
    /// of any per-job simulation fault plane.
    pub worker_faults: Option<FaultConfig>,
    /// Fraction of cache hits the reproducibility oracle re-executes, in
    /// ppm. The oracle is always on; 0 ppm merely samples nothing.
    pub oracle_ppm: u32,
    /// Emit a telemetry stream line every N completions (0 = quiet).
    pub stream_every: usize,
    /// When set, write a Perfetto trace per executed job into this dir.
    pub perfetto_dir: Option<PathBuf>,
    /// Application name baked into canonical job lines.
    pub app_name: String,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workers: 4,
            seed: 42,
            cache_dir: None,
            worker_faults: None,
            oracle_ppm: 250_000, // re-check 25% of cache hits
            stream_every: 0,
            perfetto_dir: None,
            app_name: "burgers".to_string(),
        }
    }
}

/// One accepted job's final record — deterministic bytes only (see the
/// module-level determinism contract).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// Submission index (position among accepted, deduped jobs).
    pub idx: usize,
    /// 128-bit content key (`fnv128` of the canonical line).
    pub key: u128,
    /// Canonical job line.
    pub canon: String,
    /// Result record bytes, or the deterministic failure detail.
    pub result: Result<String, String>,
}

/// Campaign-level hard failure.
#[derive(Debug)]
pub enum CampaignError {
    /// The content-addressed store refused (collision, corruption, I/O).
    Store(StoreError),
    /// A worker channel died unexpectedly (coordinator bug, not a fault).
    PoolWiring(String),
    /// A `perfetto_dir` trace could not be produced or written.
    Trace(PathBuf, String),
}

impl core::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CampaignError::Store(e) => write!(f, "result store: {e}"),
            CampaignError::PoolWiring(d) => write!(f, "worker pool wiring: {d}"),
            CampaignError::Trace(path, d) => write!(f, "trace {}: {d}", path.display()),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<StoreError> for CampaignError {
    fn from(e: StoreError) -> Self {
        CampaignError::Store(e)
    }
}

/// Everything a finished campaign reports.
#[derive(Clone, Debug, Default)]
pub struct CampaignOutcome {
    /// Per-job records, in submission order. Deterministic bytes.
    pub records: Vec<JobRecord>,
    /// Worker threads configured.
    pub workers: usize,
    /// Specs submitted (before dedup).
    pub submitted: u64,
    /// Specs dropped as duplicates of an already-accepted job.
    pub deduped: u64,
    /// Jobs answered from the cache.
    pub cache_hits: u64,
    /// Jobs executed (worker or inline), excluding oracle re-runs.
    pub executed: u64,
    /// Cache hit rate over answered jobs: hits / (hits + executed).
    pub hit_rate: f64,
    /// Job re-dispatches after worker crashes.
    pub retries: u64,
    /// Jobs whose result is a failure record.
    pub failed: u64,
    /// Jobs the coordinator ran inline (pool exhausted or `workers = 0`).
    pub inline_runs: u64,
    /// Cache hits re-executed by the oracle.
    pub oracle_checks: u64,
    /// Oracle re-runs that matched the stored bytes.
    pub oracle_passes: u64,
    /// Record slots still empty at drain. Must be 0.
    pub lost: u64,
    /// Record slots completed more than once. Must be 0.
    pub duplicated: u64,
    /// p50 job latency, microseconds (log2 bucket lower bound). A host
    /// clock: printed by `repro serve`, never written by [`Self::to_json`].
    pub p50_latency_us: u64,
    /// p99 job latency, microseconds (log2 bucket lower bound); host clock.
    pub p99_latency_us: u64,
    /// Worker-pool fault counters (injected/detected/retried/recovered/
    /// blacklisted live in the campaign rows of [`FaultCounts`]).
    pub fault_counts: FaultCounts,
    /// Wall-clock duration of the drain, milliseconds; host clock.
    pub wall_ms: u64,
}

impl CampaignOutcome {
    /// `true` when [`CampaignOutcome::violations`] is empty.
    pub fn healthy(&self) -> bool {
        self.violations().is_empty()
    }

    /// Every broken campaign invariant, one line each: exactly-once
    /// completion, oracle agreement, the dedup ledger, distinct content
    /// keys, and every injected worker death detected.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.lost != 0 {
            v.push(format!("exactly-once: {} job(s) lost", self.lost));
        }
        if self.duplicated != 0 {
            v.push(format!(
                "exactly-once: {} job(s) duplicated",
                self.duplicated
            ));
        }
        if self.oracle_passes != self.oracle_checks {
            v.push(format!(
                "oracle: {} of {} re-executions matched the stored bytes",
                self.oracle_passes, self.oracle_checks
            ));
        }
        if self.submitted != self.deduped + self.records.len() as u64 {
            v.push(format!(
                "dedup ledger: submitted {} != deduped {} + {} records",
                self.submitted,
                self.deduped,
                self.records.len()
            ));
        }
        let mut keys: Vec<u128> = self.records.iter().map(|r| r.key).collect();
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
            v.push(format!("records: content key {:032x} appears twice", w[0]));
        }
        let f = &self.fault_counts;
        if f.detected_worker != f.injected_worker_death {
            v.push(format!(
                "worker faults: {} death(s) injected, {} detected",
                f.injected_worker_death, f.detected_worker
            ));
        }
        v
    }

    /// Render `results/CAMPAIGN.json`: a `records` array of per-job objects
    /// followed by a `service` summary object. Both are deterministic for
    /// one invocation; the host clocks (latencies, `wall_ms`) are left out.
    pub fn to_json(&self) -> String {
        let records = self.records.iter().map(|r| {
            let (field, body) = match &r.result {
                Ok(rec) => ("record", rec),
                Err(e) => ("error", e),
            };
            obj(
                Layout::Row,
                [
                    ("idx", r.idx.into()),
                    ("key", format!("{:032x}", r.key).into()),
                    ("canon", r.canon.as_str().into()),
                    ("ok", r.result.is_ok().into()),
                    (field, body.as_str().into()),
                ],
            )
        });
        let faults = self
            .fault_counts
            .entries()
            .into_iter()
            .map(|(k, v)| (k, v.into()));
        let service = obj(
            Layout::Block,
            [
                ("workers", self.workers.into()),
                ("submitted", self.submitted.into()),
                ("deduped", self.deduped.into()),
                ("cache_hits", self.cache_hits.into()),
                ("executed", self.executed.into()),
                ("hit_rate", fixed(self.hit_rate, 6)),
                ("retries", self.retries.into()),
                ("failed", self.failed.into()),
                ("inline_runs", self.inline_runs.into()),
                ("oracle_checks", self.oracle_checks.into()),
                ("oracle_passes", self.oracle_passes.into()),
                ("lost", self.lost.into()),
                ("duplicated", self.duplicated.into()),
                ("faults", obj(Layout::Row, faults)),
            ],
        );
        let doc = obj(
            Layout::Block,
            [
                ("records", arr(Layout::Block, records)),
                ("service", service),
            ],
        );
        doc.render() + "\n"
    }
}

/// Execute one validated job and render its deterministic result record.
///
/// The record is the cacheable unit: virtual times, counters, and (for
/// functional runs) a 128-bit fingerprint over every patch's solution bit
/// patterns — byte-equal records mean bit-equal physics.
fn execute_job(factory: &AppFactory, level: &Level, run: &RunConfig) -> Result<String, String> {
    use std::fmt::Write as _;
    let app = factory(level);
    // An app evaluating another exp library than the job names would be
    // cached under a canonical line naming another run.
    if let Some(exp) = app.exp().filter(|&exp| exp != run.variant.exp) {
        return Err(format!(
            "config rejected: the job names exp={} but the app evaluates exp={}",
            run.variant.exp.name(),
            exp.name()
        ));
    }
    let mut sim = Simulation::try_new(level.clone(), app, run.clone())
        .map_err(|e| format!("config rejected: {e}"))?;
    let report = sim
        .try_run()
        .map_err(|e| format!("lookahead violation: {e}"))?;
    let bits = if run.exec == ExecMode::Functional {
        let bits = sim.solution_bits();
        let mut bytes = Vec::with_capacity(8 * bits.iter().map(Vec::len).sum::<usize>());
        for b in bits.iter().flatten() {
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        format!("{:032x}", fnv128(&bytes))
    } else {
        "-".to_string()
    };
    let mut rec = String::new();
    let _ = write!(
        rec,
        "steps={} total_ps={} step_end=",
        report.steps, report.total_time.0
    );
    for (i, t) in report.step_end.iter().enumerate() {
        if i > 0 {
            rec.push(',');
        }
        let _ = write!(rec, "{}", t.0);
    }
    let _ = write!(
        rec,
        " flops={} messages={} net_bytes={} kernels={} events={} bits={bits}",
        report.flops.total(),
        report.messages,
        report.net_bytes,
        report.kernels,
        report.events,
    );
    Ok(rec)
}

/// Pack a job's 128-bit content key into the stable per-attempt identity
/// the worker fault plan keys on. Deliberately *not* the worker id or any
/// schedule-dependent value: the same job draws the same fate at the same
/// attempt no matter how the pool is sized or sharded.
fn worker_fault_key(key: u128, attempt: u32) -> OffloadKey {
    OffloadKey {
        rank: (key >> 64) as u32,
        patch: key as u64,
        stage: (key >> 96) as u32,
        step: 0,
        attempt,
    }
}

/// What a worker did with one attempt.
enum WorkOutcome {
    /// Job ran to completion (or failed deterministically inside the
    /// simulation).
    Finished(Result<String, String>),
    /// The worker panicked mid-job (injected death or a real bug).
    Crashed,
}

/// Run one attempt inside a worker thread, converting a panic into
/// [`WorkOutcome::Crashed`]. The injected fault (if any) fires *before*
/// the simulation starts, so a killed attempt never half-completes.
fn worker_execute(
    factory: &AppFactory,
    plan: Option<&FaultPlan>,
    job: &QueuedJob,
    attempt: u32,
) -> WorkOutcome {
    panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = plan {
            match plan.slot_fault(&worker_fault_key(job.key, attempt)) {
                Some(SlotFault::Death) => {
                    FaultStats::bump(&plan.stats.injected_worker_death);
                    panic!(
                        "injected worker death (job {:032x} attempt {attempt})",
                        job.key
                    );
                }
                Some(SlotFault::Straggler { factor_milli }) => {
                    FaultStats::bump(&plan.stats.injected_worker_straggle);
                    // Wall-clock straggle, scaled down so campaigns stay fast:
                    // factor_milli microseconds (a 5x straggler naps 5 ms).
                    std::thread::sleep(Duration::from_micros(u64::from(factor_milli)));
                }
                None => {}
            }
        }
        WorkOutcome::Finished(execute_job(factory, &job.level, &job.run))
    }))
    .unwrap_or(WorkOutcome::Crashed)
}

/// Cache hit rate over answered jobs: `hits / (hits + executed)`, 0.0 when
/// nothing has been answered yet.
fn hit_rate(hits: u64, executed: u64) -> f64 {
    if hits + executed == 0 {
        0.0
    } else {
        hits as f64 / (hits + executed) as f64
    }
}

/// One accepted (validated, deduped) job waiting in the queue.
struct QueuedJob {
    slot: usize,
    key: u128,
    canon: String,
    level: Level,
    run: RunConfig,
}

impl QueuedJob {
    fn record(&self, result: Result<String, String>) -> JobRecord {
        JobRecord {
            idx: self.slot,
            key: self.key,
            canon: self.canon.clone(),
            result,
        }
    }
}

/// The campaign service. Submit jobs, then [`Service::drain`] once.
pub struct Service {
    cfg: CampaignConfig,
    factory: AppFactory,
    store: ResultStore,
    plan: Option<Arc<FaultPlan>>,
    queue: Vec<QueuedJob>,
    seen: BTreeSet<u128>,
    /// The record table, one write-once slot per accepted job.
    slots: Vec<Option<JobRecord>>,
    /// The outcome under construction: every counter is bumped here.
    out: CampaignOutcome,
    /// Per-attempt latency, microseconds: dispatch to fold.
    latency_us: Hist,
}

impl Service {
    /// Build a service (opens or creates the cache directory when set).
    pub fn new(cfg: CampaignConfig, factory: AppFactory) -> Result<Self, CampaignError> {
        let store = match &cfg.cache_dir {
            Some(dir) => ResultStore::on_disk(dir)?,
            None => ResultStore::in_memory(),
        };
        let plan = cfg.worker_faults.map(|fc| Arc::new(FaultPlan::new(fc)));
        let out = CampaignOutcome {
            workers: cfg.workers,
            ..CampaignOutcome::default()
        };
        Ok(Service {
            cfg,
            factory,
            store,
            plan,
            queue: Vec::new(),
            seen: BTreeSet::new(),
            slots: Vec::new(),
            out,
            latency_us: Hist::default(),
        })
    }

    /// Submit one job. Invalid configs become failure records (the
    /// campaign reports them; it does not run them); duplicates of an
    /// already-accepted job are counted and dropped.
    pub fn submit(&mut self, level: Level, run: RunConfig) {
        self.out.submitted += 1;
        let canon = canonical_job(&level, &self.cfg.app_name, &run);
        let key = fnv128(canon.as_bytes());
        if !self.seen.insert(key) {
            self.out.deduped += 1;
            return;
        }
        let job = QueuedJob {
            slot: self.slots.len(),
            key,
            canon,
            level,
            run,
        };
        if let Err(e) = validate_config(&job.level, 1, &job.run) {
            self.out.failed += 1;
            self.slots
                .push(Some(job.record(Err(format!("config rejected: {e}")))));
            return;
        }
        self.slots.push(None);
        self.queue.push(job);
    }

    /// Shard-route a job attempt to a live worker. Routing starts from the
    /// content-keyed home shard and walks past blacklisted workers; `None`
    /// means the pool is exhausted and the job runs inline.
    fn route(&self, key: u128, attempt: u32, blacklisted: &[bool]) -> Option<usize> {
        let n = blacklisted.len();
        if n == 0 {
            return None;
        }
        let home = fold(&[
            self.cfg.seed,
            D_SHARD,
            key as u64,
            (key >> 64) as u64,
            u64::from(attempt),
        ]) as usize
            % n;
        (0..n)
            .map(|off| (home + off) % n)
            .find(|&w| !blacklisted[w])
    }

    /// Whether the oracle re-executes this cache hit (seeded sample).
    fn oracle_samples(&self, key: u128) -> bool {
        let roll = fold(&[self.cfg.seed, D_ORACLE, key as u64, (key >> 64) as u64])
            % sw_resilience::plan::PPM;
        roll < u64::from(self.cfg.oracle_ppm)
    }

    /// The traced run of `job` under `perfetto_dir`, if set. A trace that
    /// cannot be produced or written fails the drain.
    fn write_perfetto(&self, job: &QueuedJob) -> Result<(), CampaignError> {
        let Some(dir) = &self.cfg.perfetto_dir else {
            return Ok(());
        };
        let path = dir.join(format!("{:032x}.perfetto.json", job.key));
        let fail = |d: String| CampaignError::Trace(path.clone(), d);
        std::fs::create_dir_all(dir).map_err(|e| fail(e.to_string()))?;
        // A dedicated traced run: telemetry on, everything else identical.
        // (The record of the primary run is not affected — traces are a
        // diagnostic product, never an input.)
        let mut traced = job.run.clone();
        traced.options.telemetry = true;
        let app = (self.factory)(&job.level);
        let mut sim = Simulation::try_new(job.level.clone(), app, traced)
            .map_err(|e| fail(format!("config rejected: {e}")))?;
        sim.try_run()
            .map_err(|e| fail(format!("lookahead violation: {e}")))?;
        let trace = perfetto::export(&sim.recorder().snapshot());
        std::fs::write(&path, trace).map_err(|e| fail(e.to_string()))
    }

    /// One telemetry stream line: progress counters so far.
    fn stream_line(&self, round: u32, done: u64) -> String {
        let o = &self.out;
        format!(
            "round={round} done={done} hits={} exec={} retries={} failed={} hit_rate={:.3} p50_us={} p99_us={}",
            o.cache_hits,
            o.executed,
            o.retries,
            o.failed,
            hit_rate(o.cache_hits, o.executed),
            self.latency_us.quantile(500),
            self.latency_us.quantile(990),
        )
    }

    /// Drain the queue: answer what the cache holds, run the misses in
    /// rounds of attempts (one per attempt number, each routed before it
    /// starts), re-execute the oracle's sample of cache hits, and assemble
    /// the outcome. Consumes the service: a campaign drains exactly once.
    pub fn drain(mut self) -> Result<CampaignOutcome, CampaignError> {
        let t0 = Instant::now();
        // Answer from the cache; the misses form round 0.
        let mut misses = Vec::new();
        let mut oracle_jobs = Vec::new();
        for job in std::mem::take(&mut self.queue) {
            match self.store.get(job.key, &job.canon)? {
                Some(hit) => {
                    self.out.cache_hits += 1;
                    self.slots[job.slot] = Some(job.record(Ok(hit.record.clone())));
                    if self.oracle_samples(job.key) {
                        oracle_jobs.push((job, hit.record));
                    }
                }
                None => misses.push(job),
            }
        }

        // Injected worker deaths are real panics caught per job; silence the
        // global hook while the rounds run so expected crashes don't spam
        // stderr (same idiom as the torture campaign).
        let quiet_panics = self
            .cfg
            .worker_faults
            .is_some_and(|fc| fc.injects_anything());
        let prev_hook = quiet_panics.then(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(|_| {}));
            prev
        });
        let rounds = self.run_rounds(&misses);
        if let Some(prev) = prev_hook {
            panic::set_hook(prev);
        }
        rounds?;

        // Reproducibility oracle over sampled cache hits.
        for (job, stored) in oracle_jobs {
            self.out.oracle_checks += 1;
            match execute_job(&self.factory, &job.level, &job.run) {
                Ok(fresh) if fresh == stored => self.out.oracle_passes += 1,
                Ok(fresh) => {
                    eprintln!(
                        "campaign: ORACLE MISMATCH for {:032x}\n  stored: {stored}\n  fresh:  {fresh}",
                        job.key
                    );
                }
                Err(e) => {
                    eprintln!(
                        "campaign: ORACLE RE-EXECUTION FAILED for {:032x}: {e}",
                        job.key
                    );
                }
            }
        }

        // Slots still empty are lost jobs.
        let mut o = self.out;
        o.lost = self.slots.iter().filter(|r| r.is_none()).count() as u64;
        o.records = self.slots.into_iter().flatten().collect();
        o.hit_rate = hit_rate(o.cache_hits, o.executed);
        o.p50_latency_us = self.latency_us.quantile(500);
        o.p99_latency_us = self.latency_us.quantile(990);
        if let Some(plan) = &self.plan {
            o.fault_counts = plan.stats.snapshot();
        }
        o.wall_ms = t0.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        Ok(o)
    }

    /// Run the cache misses in rounds, one per attempt number. A round
    /// routes its jobs (in slot order) with the blacklist as it stood when
    /// the round began, runs each live worker's share on a scoped thread
    /// and folds every attempt as it arrives; crash counts move the
    /// blacklist only after the round, and the crashed jobs with attempts
    /// left form the next round. When every worker is blacklisted (or there
    /// are none) the round runs inline on the coordinator, without fault
    /// injection: the coordinator must not die.
    fn run_rounds(&mut self, misses: &[QueuedJob]) -> Result<(), CampaignError> {
        let n = self.cfg.workers;
        let factory = Arc::clone(&self.factory);
        let plan = self.plan.clone();
        let mut blacklisted = vec![false; n];
        let mut crashes = vec![0u64; n];
        let mut pending: Vec<&QueuedJob> = misses.iter().collect();
        let mut attempt = 0u32;
        while !pending.is_empty() {
            if let Some(plan) = plan.as_ref().filter(|_| attempt > 0) {
                // Exponential backoff, virtual ps scaled to real ns so tests
                // stay fast but ordering is honest.
                std::thread::sleep(Duration::from_nanos(plan.backoff_ps(attempt) / 1000));
            }
            pending.sort_by_key(|job| job.slot);
            let mut shards: Vec<Vec<&QueuedJob>> = vec![Vec::new(); n];
            let mut next = Vec::new();
            for job in pending {
                match self.route(job.key, attempt, &blacklisted) {
                    Some(w) => shards[w].push(job),
                    None => {
                        self.out.inline_runs += 1;
                        let started = Instant::now();
                        let result = execute_job(&self.factory, &job.level, &job.run);
                        self.fold(job, attempt, WorkOutcome::Finished(result), started)?;
                    }
                }
            }
            let dispatched = Instant::now();
            std::thread::scope(|s| {
                let (tx, rx) = mpsc::channel();
                let workers: Vec<_> = shards
                    .into_iter()
                    .enumerate()
                    .filter(|(_, jobs)| !jobs.is_empty())
                    .map(|(w, jobs)| {
                        let (tx, factory, plan) = (tx.clone(), &factory, plan.as_deref());
                        s.spawn(move || {
                            for job in jobs {
                                let outcome = worker_execute(factory, plan, job, attempt);
                                if tx.send((w, job, outcome)).is_err() {
                                    break; // coordinator gone; stop quietly
                                }
                            }
                        })
                    })
                    .collect();
                drop(tx);
                let folded = rx.iter().try_for_each(|(w, job, outcome)| {
                    if let WorkOutcome::Crashed = outcome {
                        crashes[w] += 1;
                    }
                    if self.fold(job, attempt, outcome, dispatched)? {
                        next.push(job);
                    }
                    Ok::<_, CampaignError>(())
                });
                drop(rx);
                let panicked = workers.into_iter().filter_map(|h| h.join().err()).count();
                folded?;
                if panicked > 0 {
                    return Err(CampaignError::PoolWiring(format!(
                        "{panicked} worker thread(s) panicked outside a job"
                    )));
                }
                Ok(())
            })?;
            for w in 0..n {
                if crashes[w] >= BLACKLIST_AFTER && !blacklisted[w] {
                    blacklisted[w] = true;
                    if let Some(plan) = &plan {
                        FaultStats::bump(&plan.stats.workers_blacklisted);
                    }
                }
            }
            pending = next;
            attempt += 1;
        }
        Ok(())
    }

    /// Fold one attempt into the outcome as it arrives: a finished attempt
    /// fills its record slot exactly once (caching a successful record); a
    /// crashed one is counted and, with attempts left, returns `true` so
    /// the job runs again next round, else fills its slot with a failure.
    fn fold(
        &mut self,
        job: &QueuedJob,
        attempt: u32,
        outcome: WorkOutcome,
        dispatched: Instant,
    ) -> Result<bool, CampaignError> {
        let result = match outcome {
            WorkOutcome::Finished(result) => {
                let us = dispatched.elapsed().as_micros();
                self.latency_us
                    .record(u64::try_from(us).unwrap_or(u64::MAX));
                self.out.executed += 1;
                result
            }
            WorkOutcome::Crashed => {
                let max_attempts = self.plan.as_ref().map_or(1, |p| p.max_attempts().max(1));
                if let Some(plan) = &self.plan {
                    FaultStats::bump(&plan.stats.detected_worker);
                }
                if attempt + 1 < max_attempts {
                    self.out.retries += 1;
                    if let Some(plan) = &self.plan {
                        FaultStats::bump(&plan.stats.retries_job);
                    }
                    return Ok(true);
                }
                Err(format!("worker crashed on all {max_attempts} attempts"))
            }
        };
        if self.slots[job.slot].is_some() {
            self.out.duplicated += 1;
            return Ok(false);
        }
        match &result {
            Ok(record) => {
                self.store.put(job.key, &job.canon, record)?;
                if attempt > 0 {
                    if let Some(plan) = &self.plan {
                        FaultStats::bump(&plan.stats.recovered_job);
                    }
                }
                self.write_perfetto(job)?;
            }
            Err(_) => self.out.failed += 1,
        }
        self.slots[job.slot] = Some(job.record(result));
        let done = self.out.cache_hits + self.out.executed + self.out.failed;
        if self.cfg.stream_every > 0 && done.is_multiple_of(self.cfg.stream_every as u64) {
            eprintln!("campaign: {}", self.stream_line(attempt, done));
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_service() -> Service {
        let factory: AppFactory = Arc::new(|_| unreachable!("no job runs"));
        Service::new(CampaignConfig::default(), factory).expect("in-memory service")
    }

    #[test]
    fn hit_rate_counts_only_answered_jobs() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert!((hit_rate(3, 1) - 0.75).abs() < 1e-12);
        let drained = idle_service().drain().expect("empty drain");
        assert_eq!(drained.hit_rate, 0.0);
    }

    #[test]
    fn stream_line_is_single_line() {
        let line = idle_service().stream_line(1, 0);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("round=1 done=0 hits=0"), "{line}");
    }
}
