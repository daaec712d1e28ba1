//! `campaign-mixed`: the production mix through the `sw-campaign` service.
//!
//! A JSONL batch goes through `JobSpec::parse` -> `build` -> `submit` ->
//! `drain` six times per repetition, each time on a freshly built
//! `Service`: cold on an empty on-disk store, four times warm on the same
//! store (answered from disk, a quarter of the hits re-executed by the
//! reproducibility oracle), then cold again on a second store with the
//! standard worker-fault preset (deaths, stragglers, retries). Workers =
//! min(nproc, 2): the worker pool is the one place in the benchmark where
//! host threads reach an end-to-end number.
//!
//! The batch: 120 tiny functional jobs on the tiny machine over all five
//! variants and four balancers, 60 functional jobs on 16^3-cell patches
//! under the standard simulation fault preset, 20 Model jobs on 16x16x512
//! at 8 to 128 ranks (every fifth on the windowed PDES engine, one
//! thread), and one line in twelve repeated.
//!
//! What the seed may touch is limited by how the service spends time: the
//! job key (a hash of the job's content) decides which worker runs a job
//! and whether the oracle re-executes it, so redrawing the content of the
//! jobs that cost milliseconds moved a repetition by 30 % from seed to
//! seed, which is above any bound the benchmark could then hold. The seed
//! therefore draws the tiny jobs (extents, variants, balancers, steps,
//! ranks), which lines repeat, and the order of the batch; the 80 costly
//! jobs and the service seed are constants.
//!
//! No job starts threads of its own (`exec_threads`, `pdes_threads` > 1).
//! Drafts had them: with half the Model jobs on 2 PDES threads, four
//! runnable threads shared two cores and single repetitions swung 2x; with
//! only four `exec_threads` 2 jobs and one 2-step PDES job on 2 threads,
//! those five jobs still added 150 to 300 ms to a 570 ms cold pass,
//! depending on where the shuffle put them. What threads inside a job
//! cost is in the per-layer ledger instead (`sw-sim.pdes_over_serial`,
//! `sw-athread.parallel_over_serial`, `rayon.scope_spawn_us`).

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use burgers::BurgersApp;
use sw_campaign::{AppFactory, CampaignConfig, CampaignOutcome, JobSpec, Service};
use sw_math::ExpKind;
use sw_resilience::FaultConfig;
use uintah_core::Application;

use super::{Metrics, Size, Workload};
use crate::host;
use crate::rep::{fold_bytes, Rep, FNV_OFFSET};
use crate::rng::Rng;
use crate::span::Tracer;

const VARIANTS: [&str; 5] = [
    "host.sync",
    "acc.sync",
    "acc_simd.sync",
    "acc.async",
    "acc_simd.async",
];
const BALANCERS: [&str; 4] = ["block", "rr", "morton", "hilbert"];
/// Warm passes per repetition.
const WARM_PASSES: usize = 4;
/// Seed of shard routing, oracle sampling and worker faults: a constant,
/// see the module text.
const SERVICE_SEED: u64 = 42;
/// Share of cache hits the oracle re-executes (the service's default).
const ORACLE_PPM: u32 = 250_000;

/// The generated batch.
pub struct CampaignMixed {
    lines: Vec<String>,
    service_seed: u64,
    scratch: PathBuf,
    next_dir: Cell<u64>,
}

fn burgers_factory() -> AppFactory {
    Arc::new(|level| Arc::new(BurgersApp::new(level, ExpKind::Fast)) as Arc<dyn Application>)
}

impl CampaignMixed {
    /// Generate the batch for `seed`; stores go under `scratch`.
    pub fn generate(seed: u64, size: Size, scratch: &Path) -> CampaignMixed {
        let mut rng = Rng::new(seed, 4);
        let (tiny, mid, model) = match size {
            Size::Full => (120, 60, 20),
            Size::Quick => (8, 4, 5),
        };
        let mut lines = Vec::new();
        for _ in 0..tiny {
            let ax = |rng: &mut Rng| 2 + rng.below(3);
            let (lx, ly) = (1 + rng.below(2), 1 + rng.below(2));
            lines.push(format!(
                "{{\"patch\": \"{}x{}x{}\", \"layout\": \"{lx}x{ly}x1\", \"variant\": \"{}\", \
                 \"lb\": \"{}\", \"steps\": {}, \"ranks\": {}, \"machine\": \"tiny\"}}",
                ax(&mut rng),
                ax(&mut rng),
                ax(&mut rng),
                rng.pick(&VARIANTS),
                rng.pick(&BALANCERS),
                1 + rng.below(2),
                1 + rng.below(lx * ly).min(1),
            ));
        }
        for i in 0..mid {
            lines.push(format!(
                "{{\"patch\": \"16x16x16\", \"layout\": \"2x2x1\", \"variant\": \"{}\", \
                 \"lb\": \"{}\", \"steps\": 2, \"ranks\": {}, \"machine\": \"sw26010\", \
                 \"faults\": \"standard\", \"fault_seed\": {}}}",
                VARIANTS[1 + i % 4],
                BALANCERS[(i / 4) % 4],
                2 + 2 * (i % 2),
                1000 + i,
            ));
        }
        for i in 0..model {
            let ranks = [8, 16, 32, 64, 128][i % 5];
            // Every fifth job drains its windows on the PDES engine.
            let engine = if i % 5 == 4 {
                ", \"pdes\": true, \"pdes_threads\": 1"
            } else {
                ""
            };
            lines.push(format!(
                "{{\"patch\": \"16x16x512\", \"layout\": \"8x8x2\", \"variant\": \"{}\", \
                 \"exec\": \"model\", \"lb\": \"{}\", \"steps\": 10, \"ranks\": {ranks}, \
                 \"machine\": \"sw26010\"{engine}}}",
                VARIANTS[1 + i % 4],
                BALANCERS[(i / 5) % 4],
            ));
        }
        // Natural traffic repeats itself: one line in twelve is submitted
        // twice (the service must answer both and run one).
        for _ in 0..lines.len() / 12 {
            let dup = rng.pick(&lines).clone();
            lines.push(dup);
        }
        rng.shuffle(&mut lines);
        CampaignMixed {
            lines,
            service_seed: SERVICE_SEED,
            scratch: scratch.to_path_buf(),
            next_dir: Cell::new(0),
        }
    }

    /// One pass of the whole batch through a freshly built service.
    fn pass(
        &self,
        rep: &mut Rep<'_>,
        span: &'static str,
        workers: usize,
        cache: &Path,
        worker_faults: Option<FaultConfig>,
    ) -> CampaignOutcome {
        let job = rep.job();
        let cfg = CampaignConfig {
            workers,
            seed: self.service_seed,
            cache_dir: Some(cache.to_path_buf()),
            worker_faults,
            oracle_ppm: ORACLE_PPM,
            stream_every: 0,
            perfetto_dir: None,
            app_name: "burgers".to_string(),
        };
        let mut svc = Service::new(cfg, burgers_factory()).expect("store directory opens");
        let jobs: Vec<_> = rep.tr.span("campaign.parse", job, |_| {
            self.lines
                .iter()
                .map(|line| JobSpec::parse(line).and_then(|spec| spec.build()))
                .collect()
        });
        rep.add("campaign_lines", self.lines.len() as f64);
        rep.tr.span("campaign.submit", job, |_| {
            for built in jobs {
                match built {
                    Ok((level, run)) => svc.submit(level, run),
                    Err(e) => {
                        rep.checks
                            .check(false, || format!("generated line rejected: {e}"));
                    }
                }
            }
        });
        rep.add("campaign_submitted", self.lines.len() as f64);
        rep.tr
            .span(span, job, |_| svc.drain())
            .expect("campaign drains without a store or pool error")
    }
}

/// `key=value` field of a campaign result record.
fn field(record: &str, key: &str) -> Option<u64> {
    record
        .split(' ')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// The deterministic part of an outcome: canon line and result per job.
fn records_digest(o: &CampaignOutcome) -> u64 {
    o.records.iter().fold(FNV_OFFSET, |h, r| {
        let (Ok(result) | Err(result)) = &r.result;
        fold_bytes(fold_bytes(h, r.canon.as_bytes()), result.as_bytes())
    })
}

impl Workload for CampaignMixed {
    fn inputs_digest(&self) -> u64 {
        let lines = self
            .lines
            .iter()
            .fold(FNV_OFFSET, |h, l| fold_bytes(h, l.as_bytes()));
        lines ^ self.service_seed
    }

    fn repetition(&self, rep: &mut Rep<'_>) {
        let n = self.next_dir.get();
        self.next_dir.set(n + 1);
        let dir = self.scratch.join(format!("campaign-{n}"));
        let (clean, faulted) = (dir.join("clean"), dir.join("faulted"));
        let workers = host::bench_threads();

        let mut passes = vec![(
            "cold",
            self.pass(rep, "campaign.drain.cold", workers, &clean, None),
        )];
        for _ in 0..WARM_PASSES {
            passes.push((
                "warm",
                self.pass(rep, "campaign.drain.warm", workers, &clean, None),
            ));
        }
        let faults = Some(FaultConfig::standard(self.service_seed));
        passes.push((
            "faulted",
            self.pass(rep, "campaign.drain.faulted", workers, &faulted, faults),
        ));
        // The stores are the repetition's own: the next one starts cold.
        let _ = std::fs::remove_dir_all(&dir);

        let reference = records_digest(&passes[0].1);
        rep.fold(&[reference]);
        let (mut hits, mut executed) = (0, 0);
        for (i, (kind, o)) in passes.iter().enumerate() {
            let what = || format!("{kind} pass {i}");
            let healthy = rep.checks.check(
                o.lost == 0 && o.duplicated == 0 && o.oracle_checks == o.oracle_passes,
                || {
                    format!(
                        "{}: lost {} duplicated {} oracle {}/{}",
                        what(),
                        o.lost,
                        o.duplicated,
                        o.oracle_passes,
                        o.oracle_checks
                    )
                },
            ) & rep.checks.check(records_digest(o) == reference, || {
                format!("{}: records differ from the cold pass", what())
            }) & rep.checks.check(
                match *kind {
                    "warm" => o.executed == 0 && o.cache_hits as usize == o.records.len(),
                    _ => o.cache_hits == 0 && o.executed as usize == o.records.len(),
                },
                || {
                    format!(
                        "{}: {} hits, {} executed of {} jobs",
                        what(),
                        o.cache_hits,
                        o.executed,
                        o.records.len()
                    )
                },
            );
            for r in &o.records {
                let rec = r.result.as_deref().unwrap_or("");
                if let (Some(steps), Some(ps)) = (field(rec, "steps"), field(rec, "total_ps")) {
                    rep.virt_step_ps += u128::from(ps / steps.max(1));
                }
                if *kind != "warm" {
                    rep.add("sw-sim.events", field(rec, "events").unwrap_or(0) as f64);
                    rep.add("sw-mpi.msgs", field(rec, "messages").unwrap_or(0) as f64);
                    rep.add(
                        "sw-mpi.net_bytes",
                        field(rec, "net_bytes").unwrap_or(0) as f64,
                    );
                }
                rep.finish_sim(healthy && r.result.is_ok());
            }
            hits += o.cache_hits;
            executed += o.executed;
            rep.add(
                match *kind {
                    "cold" => "campaign_cold_jobs",
                    "warm" => "campaign_warm_jobs",
                    _ => "campaign_faulted_jobs",
                },
                o.records.len() as f64,
            );
            rep.add("campaign.deduped", o.deduped as f64);
            rep.add("campaign.oracle_checks", o.oracle_checks as f64);
            rep.add("campaign.retries", o.retries as f64);
            rep.add_faults(&o.fault_counts);
        }
        rep.add(
            "campaign.hit_rate",
            hits as f64 / (hits + executed).max(1) as f64,
        );
        let cold = &passes[0].1;
        rep.observed
            .insert("campaign.p50_latency_us", cold.p50_latency_us as f64);
        rep.observed
            .insert("campaign.p99_latency_us", cold.p99_latency_us as f64);
    }

    fn traced_extras(&self, tr: &mut Tracer, out: &mut Metrics) {
        // What the pool buys: the cold pass on one worker over the cold
        // pass on two. Needs two hardware threads to mean anything.
        if host::nproc() < 2 {
            return;
        }
        let dir = self.scratch.join("workers");
        let mut wall = [0.0f64; 2];
        for (i, workers) in [1usize, 2].into_iter().enumerate() {
            let mut rep = Rep::new(tr, false);
            let cache = dir.join(format!("w{workers}"));
            let t = std::time::Instant::now();
            self.pass(&mut rep, "campaign.drain.cold", workers, &cache, None);
            wall[i] = t.elapsed().as_secs_f64();
        }
        let _ = std::fs::remove_dir_all(&dir);
        out.insert("campaign.workers2_over_workers1", wall[0] / wall[1]);
    }
}
