//! Regenerate the paper's tables and figures on the simulated machine.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all
//! cargo run --release -p bench --bin repro -- table5 fig9
//! cargo run --release -p bench --bin repro -- all --jobs 4
//! cargo run --release -p bench --bin repro -- analyze
//! cargo run --release -p bench --bin repro -- trace --problem 16x16x512 --cgs 4
//! cargo run --release -p bench --bin repro -- faults --seed 42
//! cargo run --release -p bench --bin repro -- amr --seed 42
//! cargo run --release -p bench --bin repro -- torture --seed 0 --cases 200
//! cargo run --release -p bench --bin repro -- scale
//! cargo run --release -p bench --bin repro -- check
//! cargo run --release -p bench --bin repro -- comm
//! cargo run --release -p bench --bin repro -- serve --demo 64 --workers 4
//! ```
//!
//! The tables and figures are the entries of `bench::experiments::
//! EXPERIMENTS`, printed in its order. `--jobs N` fans every simulation
//! behind the runner's tables out over `N` pool workers (`0` = one per
//! hardware thread, `1` = serial). Output is byte-identical at any `N`: the
//! pool only fills the runner's cache with the cells a recording pass of
//! the same renderers asked for (see `Runner::render`).
//!
//! Every subcommand returns a `bench::cli::Output`, and `emit` is the one
//! path by which any of it is printed, written or gated.

use std::path::{Path, PathBuf};

use bench::cli::{fail, Output};
use bench::experiments::{self as ex, Experiment, Section, EXPERIMENTS};
use bench::serve::ServeArgs;
use bench::ProblemSpec;
use sw_campaign::CampaignConfig;
use sw_resilience::FaultPreset;
use uintah_core::Variant;

/// Every flag that takes a value: the word after one is its value, never a
/// subcommand, and [`flag_values`] is the only place a value is read.
const VALUE_FLAGS: [&str; 16] = [
    "--csv",
    "--jobs",
    "--problem",
    "--cgs",
    "--variant",
    "--steps",
    "--seed",
    "--cases",
    "--demo",
    "--workers",
    "--cache",
    "--worker-faults",
    "--jobs-file",
    "--out",
    "--perfetto",
    "--stream",
];

/// The flags that take no value. Any other word starting with `--` is
/// rejected before anything runs.
const SWITCHES: [&str; 2] = ["--stdin", "--no-cache"];

/// The directory the campaigns write their artifacts (and their runs their
/// side files) into.
const RESULTS: &str = "results";

/// The values given to the value flag `name`, in order (`--variant` may
/// repeat). A flag with nothing after it exits through [`fail`].
fn flag_values<'a>(args: &'a [String], name: &'a str) -> impl Iterator<Item = &'a str> {
    debug_assert!(VALUE_FLAGS.contains(&name), "{name} is not a value flag");
    args.iter()
        .enumerate()
        .filter(move |(_, a)| *a == name)
        .map(move |(i, _)| match args.get(i + 1) {
            Some(v) => v.as_str(),
            None => fail(name, "missing value"),
        })
}

/// The value of `name`, if the flag is given.
fn flag<'a>(args: &'a [String], name: &'a str) -> Option<&'a str> {
    flag_values(args, name).next()
}

/// The value of `name` as an unsigned integer, `default` when the flag is
/// absent. A value that does not parse exits through [`fail`].
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            fail(
                name,
                &format!("invalid value `{v}` (expected an unsigned integer)"),
            )
        })
    })
}

/// Every flag value, parsed and checked before anything runs (defaults
/// where a flag is absent).
struct Flags {
    /// Master seed for everything stochastic in the harness: the fault plans
    /// of `faults` and the kernel-noise streams of `fidelity`.
    seed: u64,
    /// Torture corpus size.
    cases: u64,
    /// Worker-pool size of the paper's tables, `0` = auto.
    jobs: usize,
    /// Where the tables' CSV copies go.
    csv: Option<PathBuf>,
    /// The traced problem, variants, CG count and steps.
    problem: ProblemSpec,
    variants: Vec<Variant>,
    cgs: usize,
    steps: u32,
    /// The campaign service's arguments, and where its outcome is written.
    serve: ServeArgs,
    out: PathBuf,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let seed = num_flag(args, "--seed", 42);
        let problem = flag(args, "--problem").unwrap_or("16x16x512");
        let Some(&problem) = bench::PROBLEMS.iter().find(|q| q.name == problem) else {
            fail(
                "trace",
                &format!("unknown problem `{problem}` (see Table III names)"),
            )
        };
        // `acc.sync` and `acc.async` are always traced, so the sync-vs-async
        // overlap comparison is always present.
        let mut variants = vec![Variant::ACC_SYNC, Variant::ACC_ASYNC];
        for name in flag_values(args, "--variant") {
            let Some(v) = Variant::from_name(name) else {
                fail(
                    "trace",
                    &format!("unknown variant `{name}` (see Table IV names)"),
                )
            };
            if !variants.contains(&v) {
                variants.push(v);
            }
        }
        let worker_faults = flag(args, "--worker-faults").and_then(|name| {
            let Some(preset) = FaultPreset::from_name(name) else {
                fail(
                    "serve",
                    &format!(
                        "unknown --worker-faults preset `{name}` ({})",
                        FaultPreset::ALL.map(FaultPreset::name).join("|")
                    ),
                )
            };
            preset.config(seed)
        });
        let path = |name| flag(args, name).map(PathBuf::from);
        let d = CampaignConfig::default();
        let serve = ServeArgs {
            campaign: CampaignConfig {
                seed,
                worker_faults,
                workers: num_flag(args, "--workers", d.workers),
                stream_every: num_flag(args, "--stream", d.stream_every),
                cache_dir: (!args.iter().any(|a| a == "--no-cache"))
                    .then(|| path("--cache").unwrap_or_else(|| artifact("cache"))),
                perfetto_dir: path("--perfetto"),
                ..d
            },
            read_stdin: args.iter().any(|a| a == "--stdin"),
            demo: num_flag(args, "--demo", 64),
            jobs_file: path("--jobs-file"),
        };
        Flags {
            seed,
            cases: num_flag(args, "--cases", 200),
            jobs: num_flag(args, "--jobs", 0),
            csv: path("--csv"),
            problem,
            variants,
            cgs: num_flag(args, "--cgs", 4),
            steps: num_flag(args, "--steps", 5),
            serve,
            out: path("--out").unwrap_or_else(|| artifact("CAMPAIGN.json")),
        }
    }
}

/// A campaign subcommand: its name, the flags it reads (space-separated),
/// and its run.
type Campaign = (
    &'static str,
    &'static str,
    fn(&Flags) -> Result<Output, String>,
);

/// The campaigns, in the order they run when several are chosen: explicit
/// only (none is a paper table, so `all` does not include them). Each
/// returns its section, its artifacts under `results/` and its violations.
const CAMPAIGNS: [Campaign; 9] = [
    ("trace", "--problem --cgs --steps --variant", trace),
    (
        "serve",
        "--seed --workers --worker-faults --stream --no-cache --cache --perfetto --stdin \
         --demo --jobs-file --out",
        serve,
    ),
    ("faults", "--seed", |f| Ok(faults(f.seed))),
    ("amr", "--seed", |f| Ok(amr(f.seed))),
    ("torture", "--seed --cases", |f| {
        Ok(torture(f.seed, f.cases))
    }),
    ("check", "", |_| Ok(check())),
    ("comm", "", |_| Ok(comm())),
    ("scale", "", |_| Ok(scale())),
    ("analyze", "", |_| Ok(analyze())),
];

/// The flags the paper's tables and figures read, as a group.
const TABLE_FLAGS: &str = "--jobs --csv --seed";

/// `name` under `results/`.
fn artifact(name: &str) -> PathBuf {
    Path::new(RESULTS).join(name)
}

/// A campaign's output: its one section, `lines` under `title`, its files
/// and its violations.
fn report(
    title: String,
    lines: Vec<String>,
    files: Vec<(PathBuf, String)>,
    violations: Vec<String>,
) -> Output {
    Output {
        sections: vec![Section::text(title, lines.join("\n"))],
        notes: Vec::new(),
        files,
        violations,
    }
}

/// Create `dir` for `cmd`, or fail with one line naming it.
fn create_dir(cmd: &str, dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        fail(cmd, &format!("{}: {e}", dir.display()));
    }
}

/// Write `body` to `path`, creating its directory: every file `repro`
/// produces is written here. A failure is one error line naming the path.
fn write(cmd: &str, path: &Path, body: &str) {
    let dir = path.parent().unwrap_or(Path::new(""));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, body)) {
        fail(cmd, &format!("{}: {e}", path.display()));
    }
}

/// Emit `cmd`'s output, the one way any subcommand's result reaches the
/// user: print its sections (each table's CSV copy goes under `csv`, if
/// given, without a line of its own), its notes on stderr, write its files,
/// each followed by `wrote <path>`, then gate on its violations.
fn emit(cmd: &str, out: Output, csv: Option<&Path>) {
    for s in &out.sections {
        println!("== {} ==\n{}", s.title, s.text);
        if let (Some(dir), Some(body)) = (csv, &s.csv) {
            let slug = s
                .title
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|w| !w.is_empty())
                .collect::<Vec<_>>()
                .join("_")
                .to_ascii_lowercase();
            write(cmd, &dir.join(format!("{slug}.csv")), body);
        }
    }
    for note in &out.notes {
        eprintln!("{note}");
    }
    for (path, body) in &out.files {
        write(cmd, path, body);
        println!("wrote {}", path.display());
    }
    bench::cli::gate(cmd, &out.violations);
}

/// `faults`: the resilience campaign — byte-identity under the standard
/// recoverable preset across all Table IV variants, a kill +
/// checkpoint-restart proof (checkpoints under `results/ckpt/`), the harsh
/// degradation proof, and the Model-mode virtual-time overhead of the fault
/// plane. Artifact `results/FAULTS.json`.
fn faults(seed: u64) -> Output {
    let o = bench::faults::run_faults(seed, &artifact("ckpt"));
    let mut lines = Vec::new();
    for c in &o.identity {
        lines.push(format!(
            "{:>14}: bit_identical={} | injected {} detected {} retried {} recovered {} unrecovered {}",
            c.variant,
            c.bit_identical,
            c.counts.total_injected(),
            c.counts.detected_offload + c.counts.detected_msg,
            c.counts.retries_offload + c.counts.resends_msg,
            c.counts.recovered_offload + c.counts.recovered_msg,
            c.counts.unrecovered
        ));
    }
    lines.push(format!(
        "restart: resumed from step {} ({} ckpt bytes) -> identical={} (restored {})",
        o.restart.resumed_step,
        o.restart.ckpt_bytes,
        o.restart.restart_identical,
        o.restart.counts.checkpoints_restored
    ));
    lines.push(format!(
        "harsh: completed={} quiescent={} | degraded {} unrecovered {} blacklisted {}",
        o.harsh.completed,
        o.harsh.quiescent,
        o.harsh.counts.serial_degradations,
        o.harsh.counts.unrecovered,
        o.harsh.counts.slots_blacklisted
    ));
    for c in &o.overhead {
        lines.push(format!(
            "model overhead {:>14}: clean {:.3e} s/step, faulted {:.3e} s/step -> {:+.1}%",
            c.variant,
            c.clean_tps,
            c.faulted_tps,
            c.overhead_frac() * 100.0
        ));
    }
    lines.push(format!(
        "{} faults injected across the campaign",
        o.total_injected()
    ));
    report(
        format!("Resilience: fault injection campaign (seed {seed})"),
        lines,
        vec![(artifact("FAULTS.json"), o.to_json())],
        o.violations(),
    )
}

/// `amr`: the adaptive-mesh-refinement campaign — resolution economy vs
/// uniform grids, mid-run regridding with every recompiled task graph
/// re-verified, cross-policy byte identity over whole adaptive runs, kill +
/// restart across a regrid boundary (checkpoints under
/// `results/amr-ckpt/`), and telemetry-driven rebalancing on heterogeneous
/// CGs. Artifact `results/AMR.json`.
fn amr(seed: u64) -> Output {
    let o = bench::amr::run_amr(seed, &artifact("amr-ckpt"));
    let mut lines = Vec::new();
    for c in &o.resolution {
        lines.push(format!(
            "{:>15}: {:>8} cell updates, max error {:.4e} (dt {:.3e})",
            c.label, c.cell_updates, c.max_error, c.dt
        ));
    }
    let s = &o.adaptive.stats;
    lines.push(format!(
        "adaptive: {} regrids, {} recompiles ({} clean, {} errors, {} lookahead findings), \
         fine window {:.0}% of the domain",
        s.regrids,
        s.recompiles,
        s.verified_clean,
        s.verify_errors,
        s.lookahead_violations,
        o.adaptive.fine_window_frac * 100.0
    ));
    for c in &o.identity {
        lines.push(format!(
            "identity {:>15}: bit_identical={} same_regrids={}",
            c.label, c.bit_identical, c.same_regrids
        ));
    }
    lines.push(format!(
        "restart: resumed from step {} ({} ckpt bytes), {} tail regrid(s) -> identical={}",
        o.restart.resumed_step,
        o.restart.ckpt_bytes,
        o.restart.tail_regrids,
        o.restart.restart_identical
    ));
    lines.push(format!(
        "rebalance: {} applied; weighted makespan {} -> {} ps ({:+.1}%)",
        o.rebalance.rebalances,
        o.rebalance.static_makespan_ps,
        o.rebalance.rebalanced_makespan_ps,
        -o.rebalance.gain_frac * 100.0
    ));
    report(
        format!("AMR: adaptive hierarchy campaign (seed {seed})"),
        lines,
        vec![(artifact("AMR.json"), o.to_json())],
        o.violations(),
    )
}

/// `torture`: the seeded differential config-fuzzing campaign. `--cases N`
/// configs are drawn from `--seed`, each run through the full oracle
/// battery (construct/complete/quiesce, telemetry reconciliation,
/// Model-vs-Functional agreement, parallel and SIMD bit identity,
/// checkpoint cadence semantics, typed rejection of corrupted configs).
/// Failures are shrunk to minimal configs and noted on stderr as
/// ready-to-paste regression tests. Artifact `results/TORTURE.json`.
fn torture(seed: u64, cases: u64) -> Output {
    let o = bench::torture::run_torture(seed, cases);
    let mut lines = vec![format!(
        "{} valid configs through the full battery, {} corrupted configs through the \
         rejection oracle",
        o.valid, o.rejected
    )];
    for (oracle, passes) in &o.oracle_passes {
        lines.push(format!("{passes:>6} x {oracle}"));
    }
    let mut out = report(
        format!("Torture: differential config fuzzing (seed {seed}, {cases} cases)"),
        lines,
        vec![(artifact("TORTURE.json"), o.to_json())],
        o.violations(),
    );
    for f in &o.failures {
        out.notes.push(format!(
            "FAIL case {} [{}]\n  oracle {}: {}\n  minimized: {}\n  regression test:\n{}",
            f.case, f.config, f.oracle, f.detail, f.minimized, f.regression_test
        ));
    }
    out
}

/// `check`: the concurrency-checker campaign — static lookahead-safety
/// proofs over every paper problem (plus the deliberate unsafe-lookahead
/// demo, machine-verified to the picosecond), the vector-clock race
/// detector with the static/dynamic differential over instrumented runs,
/// and the DPOR interleaving explorer asserting bit-identical warehouses
/// across forced drain orders. Artifact `results/CHECK.json`.
fn check() -> Output {
    let o = bench::check::run_check();
    let mut lines = Vec::new();
    for c in &o.statics {
        lines.push(format!(
            "static {:>13} cgs {:>3}: {:>4} channels, min latency {:>9} ps vs lookahead {} ps -> safe={}",
            c.problem, c.cgs, c.channels, c.min_latency_ps, c.lookahead_ps, c.safe
        ));
    }
    let d = &o.unsafe_demo;
    lines.push(format!(
        "unsafe demo: lookahead {} ps flagged ({} findings); machine delivered at {} ps, agrees={}",
        d.lookahead_ps, d.findings, d.machine_deliver_ps, d.machine_agrees
    ));
    for c in &o.dynamics {
        lines.push(format!(
            "dynamic {:<14} cgs {:>2} steps {}: {:>6} events, {:>5} accesses, {:>6} pairs, \
             {:>3} msg edges, {} races, {} structural, {} unmatched -> clean={}",
            c.variant,
            c.cgs,
            c.steps,
            c.events,
            c.accesses,
            c.pairs_checked,
            c.msg_edges,
            c.races,
            c.structural,
            c.unmatched,
            c.clean
        ));
    }
    for c in &o.dpors {
        lines.push(format!(
            "dpor {:<10} ranks {} steps {}: {:>3} windows ({} with messages), \
             {:>2} interleavings explored ({} replays) -> identical={}",
            c.name,
            c.ranks,
            c.steps,
            c.windows,
            c.message_windows,
            c.explored,
            c.replays,
            c.identical
        ));
    }
    lines.push(format!("{} interleavings explored", o.total_explored()));
    report(
        "Concurrency check: static proof, race detector, DPOR explorer".into(),
        lines,
        vec![(artifact("CHECK.json"), bench::check::check_json(&o))],
        o.violations(),
    )
}

/// `comm`: the communication-layer sweep — endpoint counts × aggregation
/// thresholds × eager/rendezvous crossover sizes, every cell byte-identical
/// to the single-endpoint baseline, telemetry-reconciled, and proved safe
/// over its coalesced channel models. Artifact `results/COMM.json`.
fn comm() -> Output {
    let o = bench::comm::run_comm();
    let mut lines = Vec::new();
    for c in &o.cells {
        let xo = c
            .crossover
            .map_or_else(|| "default".to_string(), |x| x.to_string());
        lines.push(format!(
            "ep {} agg {:>5}B/{:>9}ps xo {:>8}: identical={} overlap {:.3} reconciled={} \
             staged {:>3} flushes {:>3} | {} channels min {} ps safe={}",
            c.endpoints,
            c.agg_bytes,
            c.agg_deadline_ps,
            xo,
            c.bit_identical,
            c.overlap_efficiency,
            c.reconciled,
            c.agg_staged,
            c.agg_flushes,
            c.channels,
            c.min_latency_ps,
            c.proof_safe
        ));
    }
    lines.push(format!(
        "overlap: sync {:.3} async {:.3} async+agg {:.3}",
        o.sync_overlap, o.async_overlap, o.async_agg_overlap
    ));
    report(
        format!(
            "Comm layer: endpoints x aggregation x crossover ({} cgs {} steps {})",
            o.problem, o.cgs, o.steps
        ),
        lines,
        vec![(artifact("COMM.json"), bench::comm::comm_json(&o))],
        o.violations(),
    )
}

/// `scale`: strong-scaling sweeps on serial vs PDES engines. The paper's
/// axis (1..128 CGs on 16x16x512) plus a beyond-paper 1024-patch extension
/// at 64..1024 CGs; every cell asserts PDES-vs-serial bit identity. The
/// engines' wall clocks are printed, not written. Artifact
/// `results/BENCH_scale.json`; it fails if any cell diverged, a speedup
/// curve collapsed, or async lost to sync on the paper problem while ranks
/// still held patches to overlap.
fn scale() -> Output {
    use bench::scale::{run_scale, scale_json, EXTENSION_AXIS, PAPER_AXIS};
    let o = run_scale(&PAPER_AXIS, &EXTENSION_AXIS);
    let host_threads = bench::scale::host_threads();
    let mut lines = Vec::new();
    for c in &o.cells {
        lines.push(format!(
            "{:>13} {:<14} cgs {:>4}: T {:>13} ps | speedup {:>7.3} eff {:>5.3} | \
             serial {:>8.1} ms, pdes {:>8.1} ms | identical={}",
            c.problem,
            c.variant,
            c.cgs,
            c.virtual_time_ps,
            c.speedup,
            c.efficiency,
            c.serial_wall_ms,
            c.pdes_wall_ms,
            c.pdes_identical
        ));
    }
    lines.push(format!("max swept CGs {}", o.max_cgs()));
    let mut out = report(
        format!(
            "Strong scaling: serial vs conservative-PDES engine ({} steps, host_threads {host_threads})",
            bench::scale::STEPS,
        ),
        lines,
        vec![(artifact("BENCH_scale.json"), scale_json(&o))],
        o.violations(),
    );
    if host_threads <= 1 {
        out.notes.push(
            "WARNING: single-core host — the PDES engine ran its rank workers \
             sequentially, so the engine wall clocks compare window-protocol \
             overhead, not parallelism"
                .into(),
        );
    }
    out
}

/// `serve`: the campaign service front-end. Jobs come from `--jobs-file
/// <path>` (JSONL), `--stdin`, and/or `--demo N` (seeded generator, default
/// 64); they drain through `--workers N` pool workers with the
/// content-addressed cache under `--cache <dir>` (default `results/cache`;
/// `--no-cache` keeps it in memory). `--worker-faults
/// none|standard|harsh` turns on the worker-pool fault plan (crashes are
/// retried, never lost), `--stream N` emits a telemetry line every N
/// completions, and `--perfetto <dir>` writes a trace per executed job.
/// Artifact `results/CAMPAIGN.json` (or `--out <path>`); it fails on any
/// lost/duplicated/failed job, oracle mismatch, or malformed job line.
fn serve(f: &Flags) -> Result<Output, String> {
    let summary = bench::serve::run_serve(&f.serve)?;
    let o = &summary.outcome;
    let mut lines = vec![
        format!(
            "submitted {} deduped {} | cache hits {} executed {} (hit rate {:.3}) | \
             retries {} inline {} failed {}",
            o.submitted,
            o.deduped,
            o.cache_hits,
            o.executed,
            o.hit_rate,
            o.retries,
            o.inline_runs,
            o.failed
        ),
        format!(
            "exactly-once: lost {} duplicated {} | oracle {}/{} byte-identical re-runs",
            o.lost, o.duplicated, o.oracle_passes, o.oracle_checks
        ),
        format!(
            "latency p50 {} us p99 {} us | wall {} ms",
            o.p50_latency_us, o.p99_latency_us, o.wall_ms
        ),
    ];
    let w = &o.fault_counts;
    if w.injected_worker_death + w.injected_worker_straggle > 0 {
        lines.push(format!(
            "worker faults: {} death(s) {} straggle(s) injected | {} detected {} retried \
             {} recovered {} blacklisted",
            w.injected_worker_death,
            w.injected_worker_straggle,
            w.detected_worker,
            w.retries_job,
            w.recovered_job,
            w.workers_blacklisted
        ));
    }
    let mut out = report(
        format!(
            "Campaign service: {} job(s) over {} worker(s) (seed {})",
            o.records.len(),
            o.workers,
            f.seed
        ),
        lines,
        vec![(f.out.clone(), o.to_json())],
        summary.violations(),
    );
    for line in &summary.bad_lines {
        out.notes.push(format!("bad job line {line}"));
    }
    Ok(out)
}

/// `trace`: instrumented runs -> Perfetto trace JSON per variant (load at
/// <https://ui.perfetto.dev>) + derived phase metrics, artifacts
/// `results/TRACE_*.perfetto.json` and `results/TIMELINE.json`.
///
/// Flags: `--problem <name>` (Table III name, default 16x16x512),
/// `--cgs <n>` (default 4), `--steps <n>` (default 5), `--variant <name>`
/// (repeatable).
fn trace(f: &Flags) -> Result<Output, String> {
    let p = &f.problem;
    let (cases, traces): (Vec<_>, Vec<_>) = bench::trace::run_trace(p, &f.variants, f.cgs, f.steps)
        .map_err(|e| format!("invalid run configuration: {e}"))?
        .into_iter()
        .unzip();
    let mut lines = Vec::new();
    for c in &cases {
        let (compute, hidden, exposed, idle) = c.phases.totals();
        lines.push(format!(
            "{:>14}: {} events | overlap eff {:.3} | compute {} hidden {} exposed {} idle {} (ps) | reconciled={} -> {}",
            c.variant,
            c.events,
            c.phases.overlap_efficiency,
            compute,
            hidden,
            exposed,
            idle,
            c.reconciled,
            artifact(&c.trace_file).display()
        ));
    }
    let files = cases
        .iter()
        .map(|c| artifact(&c.trace_file))
        .zip(traces)
        .chain([(
            artifact("TIMELINE.json"),
            bench::trace::timeline_json(p, f.cgs, f.steps, &cases),
        )])
        .collect();
    Ok(report(
        format!(
            "Telemetry trace: {} on {} CGs, {} steps",
            p.name, f.cgs, f.steps
        ),
        lines,
        files,
        bench::trace::violations(&cases),
    ))
}

/// `analyze`: every problem x variant plan through the sw-analyze
/// verifier. Artifact `results/ANALYZE.json`; any error-severity finding
/// is a violation.
fn analyze() -> Output {
    let cells = bench::analyze::run_analyze();
    let errors = bench::analyze::total_errors(&cells);
    let mut lines = Vec::new();
    for c in &cells {
        let clean = c.report.is_clean();
        lines.push(format!(
            "{:>11} x {:<14} cgs {:>3} stages {}: {} tasks, {} edges, {} pairs, {} tiles -> {}",
            c.problem,
            c.report.variant,
            c.cgs,
            c.stages,
            c.report.n_tasks,
            c.report.n_edges,
            c.report.pairs_checked,
            c.report.tiles_checked,
            if clean { "clean" } else { "FINDINGS" }
        ));
        if !clean {
            lines.push(c.report.render().trim_end_matches('\n').to_string());
        }
    }
    lines.push(format!("{} configs, {} errors", cells.len(), errors));
    let json = bench::analyze::analyze_json(&cells);
    let mut out = report(
        "Static schedule verification".into(),
        lines,
        vec![(artifact("ANALYZE.json"), json)],
        Vec::new(),
    );
    if errors > 0 {
        out.violations
            .push(format!("{errors} error-severity finding(s)"));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A value flag missing its value, or given twice (only `--variant`
    // repeats), exits here, before anything runs.
    for name in VALUE_FLAGS {
        if flag_values(&args, name).count() > 1 && name != "--variant" {
            fail(name, "given more than once");
        }
    }
    // The flag words and the positional words; a flag's value is neither.
    let (flags, positional): (Vec<&str>, Vec<&str>) = args
        .iter()
        .enumerate()
        .filter(|&(i, _)| i == 0 || !VALUE_FLAGS.contains(&args[i - 1].as_str()))
        .map(|(_, a)| a.as_str())
        .partition(|a| VALUE_FLAGS.contains(a) || SWITCHES.contains(a));
    // So does a flag that is neither: it is not a subcommand either.
    if let Some(unknown) = positional.iter().find(|a| a.starts_with("--")) {
        fail(unknown, "unknown flag");
    }
    let is_campaign = |a: &str| CAMPAIGNS.iter().any(|(name, _, _)| *name == a);
    let is_experiment = |a: &str| a == "all" || EXPERIMENTS.iter().any(|e| e.name == a);
    if let Some(unknown) = positional
        .iter()
        .find(|a| !is_campaign(a) && !is_experiment(a))
    {
        fail(
            unknown,
            &format!(
                "unknown subcommand (campaigns: {}; experiments: all {})",
                CAMPAIGNS.map(|(name, _, _)| name).join(" "),
                EXPERIMENTS.map(|e| e.name).join(" ")
            ),
        );
    }
    // A flag no chosen subcommand reads would be silently ignored.
    let campaigns: Vec<&Campaign> = CAMPAIGNS
        .iter()
        .filter(|(name, _, _)| positional.contains(name))
        .collect();
    // The paper's tables run when no positional or any non-campaign one is
    // given; they report under the first such name.
    let tables = positional.iter().find(|a| !is_campaign(a)).copied();
    let tables = tables.or(positional.is_empty().then_some("all"));
    let read: Vec<&str> = campaigns
        .iter()
        .map(|(_, reads, _)| *reads)
        .chain(tables.map(|_| TABLE_FLAGS))
        .flat_map(str::split_whitespace)
        .collect();
    if let Some(unread) = flags.iter().find(|f| !read.contains(f)) {
        fail(unread, "no chosen subcommand reads this flag");
    }
    let f = Flags::parse(&args);
    // Every directory a chosen subcommand writes into, created once, before
    // anything runs.
    if let Some((name, _, _)) = campaigns.first() {
        create_dir(name, Path::new(RESULTS));
    }
    if let (Some(name), Some(dir)) = (tables, &f.csv) {
        create_dir(name, dir);
    }
    for (name, _, run) in campaigns {
        match run(&f) {
            Ok(out) => emit(name, out, None),
            Err(e) => fail(name, &e),
        }
    }
    let Some(name) = tables else { return };
    let all = positional.is_empty() || positional.contains(&"all");
    let chosen: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| all || positional.contains(&e.name))
        .collect();
    let mut out = Output {
        sections: ex::render(&chosen, f.jobs, f.seed),
        ..Output::default()
    };
    // A functional offload that silently degraded from the parallel to the
    // serial engine (non-exact tile partition) is said, not let pass.
    let fallbacks = sw_athread::serial_fallback_count();
    if fallbacks > 0 {
        out.notes.push(format!(
            "WARNING: {fallbacks} functional offload(s) this run fell back from the \
             parallel to the serial engine because their tile assignment was not an \
             exact partition (see sw_athread::serial_fallback_count)"
        ));
    }
    println!("flop model: {}\n", ex::flop_model_summary());
    emit(name, out, f.csv.as_deref());
}
