//! The `repro serve` front-end: drive the `sw-campaign` service from the
//! command line.
//!
//! Jobs come from three sources, combinable: a JSONL file (`--jobs-file`),
//! stdin (`--stdin`, one flat JSON object per line), and the seeded demo
//! generator (`--demo N`). Every job is type-validated at the boundary;
//! malformed lines are counted and reported, never silently dropped. The
//! campaign drains through the worker pool with the content-addressed
//! cache under `--cache` (so a re-run of the same job file is answered
//! from disk and re-verified by the sampling oracle); `repro` writes the
//! outcome to `results/CAMPAIGN.json` (or `--out`).

use std::io::{self, BufRead as _};
use std::path::PathBuf;
use std::sync::Arc;

use burgers::BurgersApp;
use sw_campaign::{demo_jobs, AppFactory, CampaignConfig, CampaignOutcome, JobSpec, Service};
use sw_math::ExpKind;
use uintah_core::Application;

/// Parsed `repro serve` arguments.
pub struct ServeArgs {
    /// The service's configuration; its seed also seeds the demo jobs.
    pub campaign: CampaignConfig,
    /// Seeded demo jobs to enqueue (0 = none).
    pub demo: usize,
    /// JSONL job file.
    pub jobs_file: Option<PathBuf>,
    /// Also read JSONL jobs from stdin.
    pub read_stdin: bool,
}

/// What a serve run produced, for the caller to render and judge.
pub struct ServeSummary {
    /// The campaign outcome (records + service counters).
    pub outcome: CampaignOutcome,
    /// JSONL lines that failed to parse or resolve into a config.
    pub bad_lines: Vec<String>,
}

impl ServeSummary {
    /// The campaign's own violations, plus failed jobs and unparseable
    /// input lines. Empty = the serve run holds.
    pub fn violations(&self) -> Vec<String> {
        let mut v = self.outcome.violations();
        if self.outcome.failed != 0 {
            v.push(format!("{} job(s) failed", self.outcome.failed));
        }
        if !self.bad_lines.is_empty() {
            v.push(format!("{} bad job line(s)", self.bad_lines.len()));
        }
        v
    }
}

fn burgers_factory() -> AppFactory {
    Arc::new(|level| Arc::new(BurgersApp::new(level, ExpKind::Fast)) as Arc<dyn Application>)
}

/// Submit one JSONL line, recording a diagnostic instead of a job when it
/// does not resolve. `origin` names the source for the diagnostic.
fn submit_line(svc: &mut Service, bad: &mut Vec<String>, origin: &str, n: usize, line: &str) {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return;
    }
    match JobSpec::parse(line).and_then(|spec| spec.build()) {
        Ok((level, run)) => svc.submit(level, run),
        Err(e) => bad.push(format!("{origin}:{n}: {e}")),
    }
}

/// Run a campaign from the parsed arguments. A failure is one line naming
/// what failed (the job source's path, the service or the drain).
pub fn run_serve(a: &ServeArgs) -> Result<ServeSummary, String> {
    let mut svc = Service::new(a.campaign.clone(), burgers_factory())
        .map_err(|e| format!("campaign service: {e}"))?;
    let mut bad_lines = Vec::new();
    if let Some(path) = &a.jobs_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for (n, line) in text.lines().enumerate() {
            submit_line(
                &mut svc,
                &mut bad_lines,
                &path.display().to_string(),
                n + 1,
                line,
            );
        }
    }
    if a.read_stdin {
        let stdin = io::stdin();
        for (n, line) in stdin.lock().lines().enumerate() {
            let line = line.map_err(|e| format!("<stdin>: {e}"))?;
            submit_line(&mut svc, &mut bad_lines, "<stdin>", n + 1, &line);
        }
    }
    for (level, run) in demo_jobs(a.campaign.seed, a.demo) {
        svc.submit(level, run);
    }
    let outcome = svc.drain().map_err(|e| format!("campaign drain: {e}"))?;
    Ok(ServeSummary { outcome, bad_lines })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sw-serve-{name}-{}", std::process::id()))
    }

    #[test]
    fn demo_campaign_round_trips_through_the_cache() {
        let cache = tmp("cache");
        std::fs::remove_dir_all(&cache).ok();
        let args = ServeArgs {
            campaign: CampaignConfig {
                workers: 2,
                seed: 3,
                cache_dir: Some(cache.clone()),
                ..CampaignConfig::default()
            },
            demo: 8,
            jobs_file: None,
            read_stdin: false,
        };
        let first = run_serve(&args).unwrap();
        assert_eq!(first.violations(), Vec::<String>::new());
        assert_eq!(first.outcome.cache_hits, 0);
        let second = run_serve(&args).unwrap();
        assert_eq!(second.violations(), Vec::<String>::new());
        assert_eq!(second.outcome.executed, 0, "run 2 must be all cache hits");
        assert!((second.outcome.hit_rate - 1.0).abs() < 1e-12);
        // Record arrays byte-identical across runs.
        let recs =
            |o: &CampaignOutcome| o.to_json().split("\"service\"").next().unwrap().to_string();
        assert_eq!(recs(&first.outcome), recs(&second.outcome));
        std::fs::remove_dir_all(&cache).ok();
    }

    #[test]
    fn jobs_file_lines_are_validated_at_the_boundary() {
        let jobs = tmp("jobs.jsonl");
        std::fs::write(
            &jobs,
            concat!(
                "# comment lines and blanks are skipped\n",
                "\n",
                "{\"variant\": \"acc.sync\", \"patch\": \"3x3x3\", \"layout\": \"2x1x1\", \"steps\": 1}\n",
                "{\"variant\": \"warp.sync\"}\n",
                "not json at all\n",
            ),
        )
        .unwrap();
        let args = ServeArgs {
            campaign: CampaignConfig {
                workers: 1,
                ..CampaignConfig::default()
            },
            demo: 0,
            jobs_file: Some(jobs.clone()),
            read_stdin: false,
        };
        let summary = run_serve(&args).unwrap();
        assert_eq!(summary.outcome.records.len(), 1);
        assert_eq!(summary.bad_lines.len(), 2, "{:?}", summary.bad_lines);
        assert_eq!(summary.violations(), ["2 bad job line(s)"]);
        let mut summary = summary;
        summary.outcome.failed = 3;
        assert_eq!(
            summary.violations(),
            ["3 job(s) failed", "2 bad job line(s)"]
        );
        assert!(
            summary.bad_lines[0].contains(":4:"),
            "{:?}",
            summary.bad_lines
        );
        std::fs::remove_file(&jobs).ok();
    }
}
