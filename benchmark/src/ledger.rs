//! The metric ledger: every workload and every metric the benchmark
//! reports, with unit, direction and (end to end) regression bound.
//!
//! `BENCHMARK.json` at the repository root is this table rendered by
//! `swbench manifest`; the self-tests fail when the two disagree.

use crate::json::esc;

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the ledger.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed (`layer.metric` for per-layer metrics).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// The value is a count fixed by the seed (virtual clock or operation
    /// count): two runs with one seed must report it bit-equal.
    pub exact: bool,
}

/// One workload of the ledger.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Why the workload exists, one line.
    pub why: &'static str,
}

/// How long one run measures, seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 17;

/// The four workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "model-scale",
        why: "The paper's own strong-scaling sweep in Model mode on one thread: sw-sim queue, sw-mpi default matching and the core scheduler and plan compile do the work, numerics none.",
    },
    WorkloadDef {
        name: "functional-burgers",
        why: "Functional Burgers, heat, advection and a 2-level AMR run on 4 CGs, one thread: sw-math exp, burgers kernels, sw-athread tile staging and the warehouse dominate; the event engine is bypassed.",
    },
    WorkloadDef {
        name: "traced-comm",
        why: "Model mode with telemetry on over endpoint, aggregation, progress-lane and rendezvous settings, each run analysed and exported: the recorder, its consumers and the non-default sw-mpi paths.",
    },
    WorkloadDef {
        name: "campaign-mixed",
        why: "A seeded JSONL job mix through the sw-campaign service on a disk store, cold, warm and faulted, 2 workers: dedup, cache, oracle, crash retry, and the only host threads in the benchmark.",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

/// The five end-to-end metrics; every workload reports all of them.
///
/// The host-time bounds are three times the quartile spread ten runs of
/// one commit show on the baseline host, whose speed drifts by several
/// percent over minutes (see the README's baseline): `wall_s` spreads 3 to
/// 4 % on the one-thread workloads and 6 to 7 % on `campaign-mixed`.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.20),
    e2e("sims_per_s", "sims/s", Better::Higher, 0.20),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    MetricDef {
        name: "virt_step_s",
        unit: "virt_s",
        better: Better::Lower,
        bound: Some(0.01),
        exact: true,
    },
];

const fn timed(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// The per-layer metrics of the traced run; the prefix is the crate.
pub const PER_LAYER: [MetricDef; 82] = [
    timed("sw-math.exp_fast_ns", "ns", Lower),
    timed("sw-math.exp_accurate_ns", "ns", Lower),
    exact("sw-math.exp_calls", "count", Lower),
    timed("burgers.scalar_cells_per_s", "cells/s", Higher),
    timed("burgers.simd_cells_per_s", "cells/s", Higher),
    timed("burgers.simd_over_scalar", "ratio", Higher),
    exact("burgers.linf_error", "abs", Lower),
    timed("sw-athread.tile_staging_gb_per_s", "GB/s", Higher),
    timed("sw-athread.tile_plan_us", "us", Lower),
    timed("sw-athread.kernel_timing_ns", "ns", Lower),
    timed("sw-athread.parallel_over_serial", "ratio", Higher),
    exact("sw-athread.serial_fallbacks", "count", Lower),
    exact("sw-sim.events", "count", Lower),
    timed("sw-sim.events_per_s", "events/s", Higher),
    timed("sw-sim.host_us_per_event", "us", Lower),
    timed("sw-sim.queue_mops", "Mops/s", Higher),
    timed("sw-sim.queue_est_share", "share", Lower),
    timed("sw-sim.merge_outboxes_us", "us", Lower),
    timed("sw-sim.pdes_over_serial", "ratio", Higher),
    timed("sw-sim.pdes_1thread_over_serial", "ratio", Higher),
    exact("sw-mpi.msgs", "count", Lower),
    exact("sw-mpi.net_bytes", "bytes", Lower),
    timed("sw-mpi.match_msgs_per_s", "msgs/s", Higher),
    timed("sw-mpi.agg_msgs_per_s", "msgs/s", Higher),
    timed("sw-mpi.rendezvous_msgs_per_s", "msgs/s", Higher),
    exact("sw-mpi.msgs_per_flush", "ratio", Higher),
    timed("sw-mpi.compact_us", "us", Lower),
    timed("sw-mpi.est_share", "share", Lower),
    timed("core.construct_us", "us", Lower),
    timed("core.plan_compile_us_per_rank", "us", Lower),
    timed("core.lb_assign_us", "us", Lower),
    timed("core.canon_lines_per_s", "lines/s", Higher),
    timed("core.dw_put_get_mops", "Mops/s", Higher),
    exact("core.mpe_busy_frac", "frac", Lower),
    exact("core.cpe_busy_frac", "frac", Higher),
    exact("core.async_gain", "frac", Higher),
    exact("core.async_gain_ext1024p", "frac", Higher),
    exact("core.scaling_eff_128cg", "frac", Higher),
    exact("core.metg_async_cells", "cells", Lower),
    timed("analyze.verify_us_per_task", "us", Lower),
    timed("analyze.lookahead_proof_us_per_channel", "us", Lower),
    exact("analyze.findings", "count", Lower),
    exact("telemetry.records", "count", Lower),
    timed("telemetry.record_mops", "Mops/s", Higher),
    timed("telemetry.on_over_off", "ratio", Lower),
    timed("telemetry.analyze_mrec_per_s", "Mrec/s", Higher),
    timed("telemetry.perfetto_mb_per_s", "MB/s", Higher),
    timed("telemetry.race_check_us_per_record", "us", Lower),
    timed("telemetry.race_check_256cg_s", "s", Lower),
    timed("telemetry.consumer_share", "share", Lower),
    exact("telemetry.overlap_eff_async", "frac", Higher),
    exact("telemetry.overlap_eff_sync", "frac", Higher),
    timed("resilience.fault_draws_per_s", "draws/s", Higher),
    timed("resilience.ckpt_write_mb_per_s", "MB/s", Higher),
    timed("resilience.ckpt_read_mb_per_s", "MB/s", Higher),
    exact("resilience.injected", "count", Lower),
    exact("resilience.recovered", "count", Higher),
    exact("resilience.unrecovered", "count", Lower),
    timed("resilience.faulted_over_clean", "ratio", Lower),
    timed("campaign.parse_lines_per_s", "lines/s", Higher),
    timed("campaign.submit_jobs_per_s", "jobs/s", Higher),
    timed("campaign.store_put_per_s", "puts/s", Higher),
    timed("campaign.store_get_per_s", "gets/s", Higher),
    timed("campaign.cold_jobs_per_s", "jobs/s", Higher),
    timed("campaign.warm_jobs_per_s", "jobs/s", Higher),
    timed("campaign.faulted_jobs_per_s", "jobs/s", Higher),
    exact("campaign.hit_rate", "frac", Higher),
    exact("campaign.deduped", "count", Higher),
    exact("campaign.oracle_checks", "count", Lower),
    exact("campaign.retries", "count", Lower),
    timed("campaign.p50_latency_us", "us", Lower),
    timed("campaign.p99_latency_us", "us", Lower),
    timed("campaign.workers2_over_workers1", "ratio", Higher),
    exact("amr.regrids", "count", Lower),
    exact("amr.recompiles", "count", Lower),
    exact("amr.cell_update_frac", "frac", Lower),
    timed("amr.run_s", "s", Lower),
    timed("rayon.scope_spawn_us", "us", Lower),
    timed("bench.trace_overhead_frac", "frac", Lower),
    timed("bench.rep_cv", "frac", Lower),
    timed("bench.alloc_calls", "count", Lower),
    timed("bench.peak_heap_mb", "MB", Lower),
];

/// Look an end-to-end or per-layer metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Render `BENCHMARK.json`.
pub fn manifest() -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name,
            esc(w.why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}
