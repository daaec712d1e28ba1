//! Per-layer metrics derived from a traced repetition's counts and spans.
//!
//! Counts come out of the program's own reports (`RunReport`,
//! `FaultCounts`, `CampaignOutcome`, `AmrStats`, recorder snapshots) and
//! are exact for a seed; times come from the spans around the calls into a
//! layer. A workload that never makes a call leaves that metric at 0.
//! `*_est_share` metrics multiply a workload's own operation count by the
//! isolated probe's cost per operation and divide by the repetition time.

use crate::harness::RepSummary;
use crate::ledger::PER_LAYER;
use crate::span::Tracer;
use crate::workloads::Metrics;

/// Metrics that compare two thread counts. On a host with one hardware
/// thread such a ratio would compare scheduling overhead, not parallelism:
/// the probes skip them, they read 0, and the result is marked
/// `degenerate_host`.
pub const THREAD_RATIOS: [&str; 3] = [
    "sw-athread.parallel_over_serial",
    "sw-sim.pdes_over_serial",
    "campaign.workers2_over_workers1",
];

/// `count / seconds`, or 0 when the workload never made the call.
fn rate(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

/// Fill `out` with every metric that follows from the counts of one traced
/// repetition (`rep`) and the spans of all `traced_reps` of them. Probe
/// results already in `out` feed the `*_est_share` estimates.
pub fn derive(rep: &RepSummary, tr: &Tracer, traced_reps: usize, out: &mut Metrics) {
    let n = traced_reps as f64;
    let count = |key: &str| rep.counts.get(key).copied().unwrap_or(0.0);
    // Seconds per repetition spent in the spans called `name`.
    let span_s = |name: &str| tr.total_under("bench.rep", name).1 / n;
    let rep_s = span_s("bench.rep");

    // Ledger-named counts pass straight through (added, because probes and
    // once-only measurements report findings under the same name).
    for def in &PER_LAYER {
        if let Some(&v) = rep.counts.get(def.name) {
            *out.entry(def.name).or_insert(0.0) += v;
        }
    }

    // sw-sim: host time per simulated event, over the spans that simulate.
    // (`amr.run` is left out: `AmrStats` carries no event count.)
    let sim_s =
        span_s("core.run") + span_s("campaign.drain.cold") + span_s("campaign.drain.faulted");
    let events = count("sw-sim.events");
    out.insert("sw-sim.events_per_s", rate(events, sim_s));
    out.insert("sw-sim.host_us_per_event", rate(sim_s * 1e6, events));
    let queue_mops = out.get("sw-sim.queue_mops").copied().unwrap_or(0.0);
    out.insert(
        "sw-sim.queue_est_share",
        rate(rate(events, queue_mops * 1e6), rep_s),
    );
    let match_rate = out.get("sw-mpi.match_msgs_per_s").copied().unwrap_or(0.0);
    out.insert(
        "sw-mpi.est_share",
        rate(rate(count("sw-mpi.msgs"), match_rate), rep_s),
    );

    // core
    let (constructs, construct_s) = tr.total_under("bench.rep", "core.construct");
    out.insert(
        "core.construct_us",
        rate(construct_s * 1e6, constructs as f64),
    );
    out.insert(
        "core.mpe_busy_frac",
        rate(count("mpe_busy_ps"), count("rank_time_ps")),
    );
    out.insert(
        "core.cpe_busy_frac",
        rate(count("cpe_busy_ps"), count("rank_time_ps")),
    );

    // telemetry: share of the repetition spent in the recorder's consumers.
    let consumers: f64 = ["snapshot", "analyze", "perfetto", "race_check"]
        .iter()
        .map(|c| span_s(&format!("telemetry.{c}")))
        .sum();
    out.insert("telemetry.consumer_share", rate(consumers, rep_s));

    // campaign
    out.insert(
        "campaign.parse_lines_per_s",
        rate(count("campaign_lines"), span_s("campaign.parse")),
    );
    out.insert(
        "campaign.submit_jobs_per_s",
        rate(count("campaign_submitted"), span_s("campaign.submit")),
    );
    for (name, jobs, drain) in [
        (
            "campaign.cold_jobs_per_s",
            "campaign_cold_jobs",
            "campaign.drain.cold",
        ),
        (
            "campaign.warm_jobs_per_s",
            "campaign_warm_jobs",
            "campaign.drain.warm",
        ),
        (
            "campaign.faulted_jobs_per_s",
            "campaign_faulted_jobs",
            "campaign.drain.faulted",
        ),
    ] {
        out.insert(name, rate(count(jobs), span_s(drain)));
    }

    out.insert("amr.run_s", span_s("amr.run"));
}
