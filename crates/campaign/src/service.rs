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
//! re-dispatches up to `max_attempts`, blacklists a worker after repeated
//! crashes, and degrades to inline execution when no worker is left.
//!
//! # Determinism contract
//!
//! [`JobRecord`]s contain only schedule-independent bytes (submission
//! index, content key, canonical line, result record). Latency, retries,
//! and hit rates live in the separate service summary. Two runs of the
//! same job set therefore produce byte-identical record arrays — the
//! property the ci.sh campaign stage `cmp`s across its three runs.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sw_resilience::{fold, FaultConfig, FaultCounts, FaultPlan, FaultStats, OffloadKey, SlotFault};
use sw_telemetry::json::{arr, fixed, obj, Layout};
use sw_telemetry::perfetto;
use uintah_core::{
    canonical_job, fnv128, validate_config, Application, ExecMode, Level, RunConfig, Simulation,
};

use crate::metrics::ServiceMetrics;
use crate::store::{ResultStore, StoreError};

/// Builds the application a worker runs on a given level. The factory
/// crosses thread boundaries; the `Arc<dyn Application>` it returns does
/// not (each worker builds its own).
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
}

impl core::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CampaignError::Store(e) => write!(f, "result store: {e}"),
            CampaignError::PoolWiring(d) => write!(f, "worker pool wiring: {d}"),
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
#[derive(Clone, Debug)]
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
    let mut sim = Simulation::try_new(level.clone(), app, run.clone())
        .map_err(|e| format!("config rejected: {e}"))?;
    let report = sim
        .try_run()
        .map_err(|e| format!("lookahead violation: {e}"))?;
    let bits = if run.exec == ExecMode::Functional {
        let level = sim.level();
        let mut bytes = Vec::new();
        for p in 0..level.n_patches() {
            let var = sim.solution(p);
            for c in level.patch(p).region.iter() {
                bytes.extend_from_slice(&var.get(c).to_bits().to_le_bytes());
            }
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

/// Work order sent to a worker.
struct WorkMsg {
    slot: usize,
    attempt: u32,
    level: Level,
    run: RunConfig,
}

/// What a worker did with a work order.
enum WorkOutcome {
    /// Job ran to completion (or failed deterministically inside the
    /// simulation).
    Finished(Result<String, String>),
    /// The worker panicked mid-job (injected death or a real bug).
    Crashed(String),
}

/// Completion report from a worker.
struct DoneMsg {
    slot: usize,
    attempt: u32,
    worker: usize,
    outcome: WorkOutcome,
}

/// Run one work order inside a worker thread, converting panics into
/// [`WorkOutcome::Crashed`]. The injected fault (if any) fires *before*
/// the simulation starts, so a killed attempt never half-completes.
fn worker_execute(
    factory: &AppFactory,
    plan: Option<&Arc<FaultPlan>>,
    job_key: u128,
    msg: &WorkMsg,
) -> WorkOutcome {
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = plan {
            match plan.slot_fault(&worker_fault_key(job_key, msg.attempt)) {
                Some(SlotFault::Death) => {
                    FaultStats::bump(&plan.stats.injected_worker_death);
                    panic!(
                        "injected worker death (job {job_key:032x} attempt {})",
                        msg.attempt
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
        WorkOutcome::Finished(execute_job(factory, &msg.level, &msg.run))
    }));
    match caught {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            WorkOutcome::Crashed(msg)
        }
    }
}

/// One accepted (validated, deduped) job waiting in the queue.
struct QueuedJob {
    key: u128,
    canon: String,
    level: Level,
    run: RunConfig,
}

/// The campaign service. Submit jobs, then [`Service::drain`] once.
pub struct Service {
    cfg: CampaignConfig,
    factory: AppFactory,
    store: ResultStore,
    metrics: ServiceMetrics,
    plan: Option<Arc<FaultPlan>>,
    queue: Vec<QueuedJob>,
    seen: BTreeMap<u128, usize>,
    rejects: Vec<JobRecord>,
}

impl Service {
    /// Build a service (opens or creates the cache directory when set).
    pub fn new(cfg: CampaignConfig, factory: AppFactory) -> Result<Self, CampaignError> {
        let store = match &cfg.cache_dir {
            Some(dir) => ResultStore::on_disk(dir)?,
            None => ResultStore::in_memory(),
        };
        let plan = cfg.worker_faults.map(|fc| Arc::new(FaultPlan::new(fc)));
        Ok(Service {
            cfg,
            factory,
            store,
            metrics: ServiceMetrics::default(),
            plan,
            queue: Vec::new(),
            seen: BTreeMap::new(),
            rejects: Vec::new(),
        })
    }

    /// Live metrics (counters stream while a drain is in progress).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Submit one job. Invalid configs become failure records (the
    /// campaign reports them; it does not run them); duplicates of an
    /// already-accepted job are counted and dropped.
    pub fn submit(&mut self, level: Level, run: RunConfig) {
        self.metrics.submitted.inc();
        let canon = canonical_job(&level, &self.cfg.app_name, &run);
        let key = fnv128(canon.as_bytes());
        if self.seen.contains_key(&key) {
            self.metrics.deduped.inc();
            return;
        }
        let slot = self.queue.len() + self.rejects.len();
        self.seen.insert(key, slot);
        if let Err(e) = validate_config(&level, 1, &run) {
            self.metrics.failed.inc();
            self.rejects.push(JobRecord {
                idx: slot,
                key,
                canon,
                result: Err(format!("config rejected: {e}")),
            });
            return;
        }
        self.queue.push(QueuedJob {
            key,
            canon,
            level,
            run,
        });
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

    fn write_perfetto(&self, key: u128, level: &Level, run: &RunConfig) {
        let Some(dir) = &self.cfg.perfetto_dir else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        // A dedicated traced run: telemetry on, everything else identical.
        // (The record of the primary run is not affected — traces are a
        // diagnostic product, never an input.)
        let mut traced = run.clone();
        traced.options.telemetry = true;
        let app = (self.factory)(level);
        if let Ok(mut sim) = Simulation::try_new(level.clone(), app, traced) {
            if sim.try_run().is_ok() {
                let snap = sim.recorder().snapshot();
                let trace = perfetto::export(&snap);
                let _ = std::fs::write(dir.join(format!("{key:032x}.perfetto.json")), trace);
            }
        }
    }

    /// Drain the queue through the worker pool and assemble the outcome.
    /// Consumes the service: a campaign drains exactly once.
    pub fn drain(mut self) -> Result<CampaignOutcome, CampaignError> {
        let t0 = Instant::now();
        let n_workers = self.cfg.workers;
        let total_slots = self.queue.len() + self.rejects.len();
        let mut records: Vec<Option<JobRecord>> = vec![None; total_slots];
        let mut duplicated = 0u64;
        for r in std::mem::take(&mut self.rejects) {
            let slot = r.idx;
            records[slot] = Some(r);
        }

        // Phase 1: answer from the cache; queue the misses.
        let mut pending: Vec<QueuedJob> = Vec::new();
        let mut oracle_jobs: Vec<(usize, QueuedJob, String)> = Vec::new();
        for job in std::mem::take(&mut self.queue) {
            let slot = self.seen[&job.key];
            match self.store.get(job.key, &job.canon)? {
                Some(hit) => {
                    self.metrics.cache_hits.inc();
                    self.metrics.completed.inc();
                    records[slot] = Some(JobRecord {
                        idx: slot,
                        key: job.key,
                        canon: job.canon.clone(),
                        result: Ok(hit.record.clone()),
                    });
                    if self.oracle_samples(job.key) {
                        oracle_jobs.push((slot, job, hit.record));
                    }
                }
                None => pending.push(job),
            }
        }

        // Phase 2: spawn the pool and dispatch the misses. Injected worker
        // deaths are real panics caught per job; silence the global hook
        // while the pool runs so expected crashes don't spam stderr (same
        // idiom as the torture campaign), and restore it after the join.
        let quiet_panics = self
            .cfg
            .worker_faults
            .is_some_and(|fc| fc.injects_anything());
        let prev_hook = quiet_panics.then(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(|_| {}));
            prev
        });
        let (done_tx, done_rx) = mpsc::channel::<DoneMsg>();
        let mut senders: Vec<mpsc::Sender<WorkMsg>> = Vec::new();
        let mut handles = Vec::new();
        for w in 0..n_workers {
            let (tx, rx) = mpsc::channel::<WorkMsg>();
            senders.push(tx);
            let done = done_tx.clone();
            let factory = Arc::clone(&self.factory);
            let plan = self.plan.clone();
            let keys: BTreeMap<usize, u128> =
                pending.iter().map(|j| (self.seen[&j.key], j.key)).collect();
            handles.push(std::thread::spawn(move || {
                for msg in rx.iter() {
                    let key = keys.get(&msg.slot).copied().unwrap_or(0);
                    let outcome = worker_execute(&factory, plan.as_ref(), key, &msg);
                    let report = DoneMsg {
                        slot: msg.slot,
                        attempt: msg.attempt,
                        worker: w,
                        outcome,
                    };
                    if done.send(report).is_err() {
                        break; // coordinator gone; shut down quietly
                    }
                }
            }));
        }
        drop(done_tx);

        let mut blacklisted = vec![false; n_workers];
        let mut crash_counts = vec![0u64; n_workers];
        let mut in_flight: BTreeMap<usize, (QueuedJob, u32, Instant)> = BTreeMap::new();
        let max_attempts = self.plan.as_ref().map_or(1, |p| p.max_attempts().max(1));

        let mut queued = pending.len();
        for job in pending {
            let slot = self.seen[&job.key];
            self.metrics.queue_depth.record(queued as u64);
            queued -= 1;
            self.dispatch(
                job,
                slot,
                0,
                &senders,
                &blacklisted,
                &mut in_flight,
                &mut records,
                &mut duplicated,
            );
        }

        // Phase 3: collect completions, retrying crashed jobs.
        while !in_flight.is_empty() {
            let done = done_rx
                .recv()
                .map_err(|e| CampaignError::PoolWiring(format!("results channel closed: {e}")))?;
            let Some((job, attempt, started)) = in_flight.remove(&done.slot) else {
                // A completion for a slot we no longer track: exactly-once
                // violation (should be impossible; counted, not panicked).
                duplicated += 1;
                continue;
            };
            debug_assert_eq!(attempt, done.attempt);
            match done.outcome {
                WorkOutcome::Finished(result) => {
                    let latency = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    self.metrics.latency_us.record(latency);
                    self.metrics.executed.inc();
                    self.finish(
                        &mut records,
                        &mut duplicated,
                        done.slot,
                        &job,
                        result,
                        attempt,
                    )?;
                }
                WorkOutcome::Crashed(_why) => {
                    if let Some(plan) = &self.plan {
                        FaultStats::bump(&plan.stats.detected_worker);
                    }
                    crash_counts[done.worker] += 1;
                    if crash_counts[done.worker] == BLACKLIST_AFTER && !blacklisted[done.worker] {
                        blacklisted[done.worker] = true;
                        if let Some(plan) = &self.plan {
                            FaultStats::bump(&plan.stats.workers_blacklisted);
                        }
                    }
                    if attempt + 1 >= max_attempts {
                        self.finish(
                            &mut records,
                            &mut duplicated,
                            done.slot,
                            &job,
                            Err(format!("worker crashed on all {max_attempts} attempts")),
                            attempt,
                        )?;
                    } else {
                        self.metrics.retries.inc();
                        if let Some(plan) = &self.plan {
                            FaultStats::bump(&plan.stats.retries_job);
                            // Exponential backoff, virtual ps scaled to real
                            // ns so tests stay fast but ordering is honest.
                            let ps = plan.backoff_ps(attempt + 1);
                            std::thread::sleep(Duration::from_nanos(ps / 1000));
                        }
                        self.dispatch(
                            job,
                            done.slot,
                            attempt + 1,
                            &senders,
                            &blacklisted,
                            &mut in_flight,
                            &mut records,
                            &mut duplicated,
                        );
                    }
                }
            }
            if self.cfg.stream_every > 0
                && self
                    .metrics
                    .completed
                    .get()
                    .is_multiple_of(self.cfg.stream_every as u64)
            {
                eprintln!("campaign: {}", self.metrics.stream_line(in_flight.len(), 0));
            }
        }

        // Phase 4: graceful drain — close the work channels and join.
        drop(senders);
        for h in handles {
            h.join()
                .map_err(|_| CampaignError::PoolWiring("worker thread poisoned".to_string()))?;
        }
        if let Some(prev) = prev_hook {
            panic::set_hook(prev);
        }

        // Phase 5: reproducibility oracle over sampled cache hits.
        for (_slot, job, stored) in oracle_jobs {
            self.metrics.oracle_checks.inc();
            match execute_job(&self.factory, &job.level, &job.run) {
                Ok(fresh) if fresh == stored => self.metrics.oracle_passes.inc(),
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

        // Assemble the outcome. Slots still empty are lost jobs.
        let lost = records.iter().filter(|r| r.is_none()).count() as u64;
        let records: Vec<JobRecord> = records.into_iter().flatten().collect();
        let fault_counts = self
            .plan
            .as_ref()
            .map(|p| p.stats.snapshot())
            .unwrap_or_default();
        let m = &self.metrics;
        Ok(CampaignOutcome {
            workers: n_workers,
            submitted: m.submitted.get(),
            deduped: m.deduped.get(),
            cache_hits: m.cache_hits.get(),
            executed: m.executed.get(),
            hit_rate: m.hit_rate(),
            retries: m.retries.get(),
            failed: m.failed.get(),
            inline_runs: m.inline_runs.get(),
            oracle_checks: m.oracle_checks.get(),
            oracle_passes: m.oracle_passes.get(),
            lost,
            duplicated,
            p50_latency_us: m.p50_latency_us(),
            p99_latency_us: m.p99_latency_us(),
            fault_counts,
            wall_ms: t0.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
            records,
        })
    }

    /// Send a job attempt to its shard worker, or run it inline when the
    /// pool is empty/exhausted.
    #[allow(clippy::too_many_arguments)] // coordinator-internal plumbing
    fn dispatch(
        &mut self,
        job: QueuedJob,
        slot: usize,
        attempt: u32,
        senders: &[mpsc::Sender<WorkMsg>],
        blacklisted: &[bool],
        in_flight: &mut BTreeMap<usize, (QueuedJob, u32, Instant)>,
        records: &mut [Option<JobRecord>],
        duplicated: &mut u64,
    ) {
        if let Some(w) = self.route(job.key, attempt, blacklisted) {
            let msg = WorkMsg {
                slot,
                attempt,
                level: job.level.clone(),
                run: job.run.clone(),
            };
            if senders[w].send(msg).is_ok() {
                in_flight.insert(slot, (job, attempt, Instant::now()));
                return;
            }
            // The worker's channel is gone (thread exited): fall through
            // to inline execution rather than losing the job.
        }
        // Inline fallback: the coordinator runs the job itself. No fault
        // injection here — the coordinator must not die.
        self.metrics.inline_runs.inc();
        self.metrics.executed.inc();
        let t = Instant::now();
        let result = execute_job(&self.factory, &job.level, &job.run);
        self.metrics
            .latency_us
            .record(t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        // finish() only errors on store I/O; surface it as a failure record
        // rather than unwinding the dispatch path.
        if let Err(e) = self.finish(records, duplicated, slot, &job, result, attempt) {
            records[slot].get_or_insert(JobRecord {
                idx: slot,
                key: job.key,
                canon: job.canon.clone(),
                result: Err(format!("store error: {e}")),
            });
        }
    }

    /// Commit one completed attempt into its record slot exactly once,
    /// caching successful records.
    fn finish(
        &mut self,
        records: &mut [Option<JobRecord>],
        duplicated: &mut u64,
        slot: usize,
        job: &QueuedJob,
        result: Result<String, String>,
        attempt: u32,
    ) -> Result<(), CampaignError> {
        if records[slot].is_some() {
            *duplicated += 1;
            return Ok(());
        }
        if let Ok(record) = &result {
            self.store.put(job.key, &job.canon, record)?;
            if attempt > 0 {
                if let Some(plan) = &self.plan {
                    FaultStats::bump(&plan.stats.recovered_job);
                }
            }
            self.write_perfetto(job.key, &job.level, &job.run);
        } else {
            self.metrics.failed.inc();
        }
        self.metrics.completed.inc();
        records[slot] = Some(JobRecord {
            idx: slot,
            key: job.key,
            canon: job.canon.clone(),
            result,
        });
        Ok(())
    }
}
