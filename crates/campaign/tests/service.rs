//! End-to-end campaign service tests: dedup, cache determinism, the
//! reproducibility oracle, and (the PR's recovery acceptance) worker-crash
//! retry with exactly-once completion and byte-identical results.

use std::sync::Arc;

use sw_campaign::{demo_jobs, AppFactory, CampaignConfig, CampaignOutcome, Service};
use sw_math::ExpKind;
use sw_resilience::plan::PPM;
use sw_resilience::FaultConfig;
use uintah_core::grid::iv;
use uintah_core::{Application, ExecMode, Level, RunConfig, Simulation, Variant};

use burgers::BurgersApp;

fn factory() -> AppFactory {
    Arc::new(|level| Arc::new(BurgersApp::new(level, ExpKind::Fast)) as Arc<dyn Application>)
}

fn run_campaign(cfg: CampaignConfig, seed: u64, n: usize) -> CampaignOutcome {
    let mut svc = Service::new(cfg, factory()).expect("service builds");
    for (level, run) in demo_jobs(seed, n) {
        svc.submit(level, run);
    }
    svc.drain().expect("campaign drains")
}

/// Result records sorted by content key: the schedule-independent shape
/// two campaigns over the same job set must agree on byte-for-byte.
fn record_bytes(outcome: &CampaignOutcome) -> Vec<(u128, String)> {
    let mut v: Vec<(u128, String)> = outcome
        .records
        .iter()
        .map(|r| (r.key, format!("{:?}", r.result)))
        .collect();
    v.sort();
    v
}

#[test]
fn dedup_fires_and_every_job_completes_exactly_once() {
    let outcome = run_campaign(
        CampaignConfig {
            workers: 3,
            seed: 9,
            ..CampaignConfig::default()
        },
        7,
        16,
    );
    // demo_jobs' last job duplicates job 0, plus any seed-coincident pairs.
    assert!(outcome.deduped >= 1, "demo batch must exercise dedup");
    assert_eq!(outcome.submitted, 16);
    assert_eq!(outcome.records.len() as u64, 16 - outcome.deduped);
    assert_eq!(outcome.lost, 0);
    assert_eq!(outcome.duplicated, 0);
    assert_eq!(outcome.failed, 0);
    for r in &outcome.records {
        assert!(r.result.is_ok(), "job {} failed: {:?}", r.idx, r.result);
    }
    assert!(outcome.healthy());
}

#[test]
fn second_run_is_all_cache_hits_with_identical_records() {
    let dir = std::env::temp_dir().join(format!("sw-campaign-test-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = |workers: usize| CampaignConfig {
        workers,
        seed: 5,
        cache_dir: Some(dir.clone()),
        oracle_ppm: PPM as u32, // oracle re-checks EVERY hit in this test
        ..CampaignConfig::default()
    };
    let first = run_campaign(cfg(4), 3, 24);
    assert_eq!(first.cache_hits, 0, "fresh cache cannot hit");
    assert!(first.healthy());
    // Second campaign, different pool size: same records, all from cache.
    let second = run_campaign(cfg(2), 3, 24);
    assert_eq!(second.executed, 0, "everything must come from the cache");
    assert!((second.hit_rate - 1.0).abs() < 1e-12);
    assert_eq!(record_bytes(&first), record_bytes(&second));
    // The oracle re-executed every hit and every byte matched.
    assert_eq!(second.oracle_checks, second.cache_hits);
    assert_eq!(second.oracle_passes, second.oracle_checks);
    assert!(second.healthy());
    std::fs::remove_dir_all(&dir).ok();
}

/// A fault plan that kills every job's first attempt: `slot_death_ppm` at
/// 100% with two attempts and guaranteed recovery means attempt 0 always
/// dies and attempt 1 is forced clean.
fn always_die_once(seed: u64) -> FaultConfig {
    FaultConfig {
        slot_death_ppm: PPM as u32,
        max_attempts: 2,
        guarantee_recovery: true,
        ..FaultConfig::none(seed)
    }
}

#[test]
fn worker_crash_recovery_retries_exactly_once_with_identical_bytes() {
    let n = 12;
    let calm = run_campaign(
        CampaignConfig {
            workers: 3,
            seed: 11,
            ..CampaignConfig::default()
        },
        2,
        n,
    );
    let stormy = run_campaign(
        CampaignConfig {
            workers: 3,
            seed: 11,
            worker_faults: Some(always_die_once(77)),
            ..CampaignConfig::default()
        },
        2,
        n,
    );
    // Exactly-once under injected crashes: nothing lost, nothing doubled,
    // nothing failed.
    assert_eq!(stormy.lost, 0);
    assert_eq!(stormy.duplicated, 0);
    assert_eq!(stormy.failed, 0);
    assert!(stormy.healthy());
    // Every job was retried exactly once and recovered.
    let jobs = stormy.records.len() as u64;
    let fc = &stormy.fault_counts;
    assert_eq!(fc.injected_worker_death, jobs, "every first attempt dies");
    assert_eq!(fc.detected_worker, jobs, "every death detected");
    assert_eq!(fc.retries_job, jobs, "each job retried exactly once");
    assert_eq!(fc.recovered_job, jobs, "each retry recovered");
    assert_eq!(stormy.retries, jobs);
    // Workers crash repeatedly under a 100% death plan, so the blacklist
    // must have engaged (routing then walks to the next worker or inline).
    assert!(fc.workers_blacklisted > 0, "blacklist must engage");
    // Results are byte-identical to the calm campaign: faults cost retries,
    // never answers.
    assert_eq!(record_bytes(&calm), record_bytes(&stormy));
}

#[test]
fn campaign_json_contains_records_and_service_sections() {
    let outcome = run_campaign(
        CampaignConfig {
            workers: 2,
            seed: 1,
            ..CampaignConfig::default()
        },
        1,
        6,
    );
    let json = outcome.to_json();
    assert!(json.contains("\"records\": ["));
    assert!(json.contains("\"service\": {"));
    assert!(json.contains("\"hit_rate\":"));
    assert!(json.contains("\"lost\": 0"));
    assert!(json.contains("\"duplicated\": 0"));
    assert!(json.contains("\"faults\": {"));
    // Every record row carries the canonical line and the result bytes.
    for r in &outcome.records {
        assert!(json.contains(&format!("{:032x}", r.key)));
    }
}

#[test]
fn identical_campaigns_render_byte_identical_json() {
    // The artifact holds no host clock (latencies and the drain's wall time
    // are stdout only) and the drain routes each round before it starts, so
    // one invocation always writes the same bytes. The first faulted case
    // is ci.sh's `--worker-faults standard` demo campaign: deaths, retries
    // and blacklisted workers included. The second kills every first
    // attempt on a 2-worker pool, so both workers are blacklisted after
    // round 0; routing retries by completion order once made `inline_runs`
    // vary from run to run here.
    let cases = [
        (4, 42, 42, 64, None, 2),
        (4, 42, 42, 64, Some(FaultConfig::standard(42)), 2),
        (2, 11, 2, 8, Some(always_die_once(77)), 20),
    ];
    for (workers, seed, job_seed, n, worker_faults, runs) in cases {
        let cfg = CampaignConfig {
            workers,
            seed,
            worker_faults,
            ..CampaignConfig::default()
        };
        let first = run_campaign(cfg.clone(), job_seed, n);
        let json = first.to_json();
        for _ in 1..runs {
            assert_eq!(json, run_campaign(cfg.clone(), job_seed, n).to_json());
        }
        for clock in ["p50_latency_us", "p99_latency_us", "wall_ms"] {
            assert!(!json.contains(clock), "{clock} is in the artifact");
        }
        if workers == 2 {
            // Every first attempt dies, both workers are blacklisted after
            // round 0, and every retry runs inline.
            let jobs = first.records.len() as u64;
            assert_eq!(jobs, 7, "demo_jobs(2, 8) dedups to 7");
            assert_eq!(first.retries, jobs);
            assert_eq!(first.inline_runs, jobs);
            assert_eq!(first.fault_counts.workers_blacklisted, 2);
            assert!(first.healthy());
        }
    }
}

#[test]
fn violations_name_the_broken_invariant() {
    let good = run_campaign(
        CampaignConfig {
            workers: 2,
            seed: 1,
            ..CampaignConfig::default()
        },
        1,
        6,
    );
    assert_eq!(good.violations(), Vec::<String>::new());
    // A failed record's free text is escaped into one valid string.
    let mut failed = good.clone();
    failed.records[0].result = Err("config \"x\\y\" rejected\n".into());
    assert!(failed
        .to_json()
        .contains("\"ok\": false, \"error\": \"config \\\"x\\\\y\\\" rejected\\n\"}"));

    let named = |corrupt: &dyn Fn(&mut CampaignOutcome), needle: &str| {
        let mut o = good.clone();
        corrupt(&mut o);
        let v = o.violations();
        assert!(
            v.iter().any(|line| line.contains(needle)),
            "no violation names `{needle}`: {v:?}"
        );
        assert!(!o.healthy());
    };
    named(&|o| o.lost = 1, "exactly-once: 1 job(s) lost");
    named(&|o| o.duplicated = 2, "exactly-once: 2 job(s) duplicated");
    named(&|o| o.oracle_checks = o.oracle_passes + 1, "oracle: ");
    named(&|o| o.deduped += 1, "dedup ledger");
    named(&|o| o.records[1].key = o.records[0].key, "appears twice");
    named(
        &|o| o.fault_counts.injected_worker_death = 3,
        "3 death(s) injected, 0 detected",
    );
}

#[test]
fn zero_workers_degrades_to_inline_execution() {
    let outcome = run_campaign(
        CampaignConfig {
            workers: 0,
            seed: 2,
            ..CampaignConfig::default()
        },
        4,
        6,
    );
    assert_eq!(outcome.lost, 0);
    assert_eq!(outcome.duplicated, 0);
    assert_eq!(outcome.inline_runs, outcome.executed);
    assert!(outcome.healthy());
}

#[test]
fn a_job_naming_another_exp_library_than_the_app_is_rejected_not_cached() {
    // The factory builds fast-exp apps. An accurate-exp job used to run the
    // fast-exp app and be recorded under a line reading `exp=accurate`
    // (flops=10543824896 where the accurate run does 12623937536).
    let level = Level::new(iv(16, 16, 512), iv(8, 8, 2));
    let fast = RunConfig {
        steps: 2,
        ..RunConfig::paper(Variant::ACC_SIMD_ASYNC, ExecMode::Model, 8)
    };
    let mut accurate = fast.clone();
    accurate.variant.exp = ExpKind::Accurate;
    let mut svc = Service::new(CampaignConfig::default(), factory()).expect("service builds");
    svc.submit(level.clone(), fast.clone());
    svc.submit(level.clone(), accurate);
    let outcome = svc.drain().expect("campaign drains");
    assert_eq!(outcome.failed, 1);
    let direct = Simulation::try_new(level.clone(), factory()(&level), fast)
        .expect("a valid cell")
        .run();
    let record = outcome.records[0]
        .result
        .as_ref()
        .expect("the fast job runs");
    assert!(
        record.contains(&format!(" flops={} ", direct.flops.total())),
        "{record}"
    );
    let rejected = outcome.records[1].result.as_ref().unwrap_err();
    assert!(
        rejected.starts_with("config rejected: ")
            && rejected.contains("exp=accurate")
            && rejected.contains("exp=fast"),
        "{rejected}"
    );
}
