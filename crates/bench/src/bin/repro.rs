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
//! hardware thread); `--serial` is shorthand for `--jobs 1`. Output is
//! byte-identical either way: the pool only fills the runner's cache with
//! the cells a recording pass of the same renderers asked for (see
//! `Runner::render`).

use bench::experiments::{self as ex, Experiment, EXPERIMENTS};
use sw_resilience::FaultPreset;
use uintah_core::Variant;

/// Every flag that takes a value: the word after one is its value, never a
/// subcommand, and [`flag_values`] is the only place a value is read.
const VALUE_FLAGS: [&str; 17] = [
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
    "--oracle-ppm",
    "--jobs-file",
    "--out",
    "--perfetto",
    "--stream",
];

/// The flags that take no value. Any other word starting with `--` is
/// rejected before anything runs.
const SWITCHES: [&str; 3] = ["--serial", "--stdin", "--no-cache"];

/// A campaign subcommand: its name, the flags it reads, and its runner.
type Campaign<'a> = (&'a str, &'a [&'a str], &'a dyn Fn());

/// The values given to the value flag `name`, in order (`--variant` may
/// repeat). A flag with nothing after it exits through `bench::cli::fail`.
fn flag_values<'a>(args: &'a [String], name: &'a str) -> impl Iterator<Item = &'a str> {
    debug_assert!(VALUE_FLAGS.contains(&name), "{name} is not a value flag");
    args.iter()
        .enumerate()
        .filter(move |(_, a)| *a == name)
        .map(move |(i, _)| match args.get(i + 1) {
            Some(v) => v.as_str(),
            None => bench::cli::fail(name, "missing value"),
        })
}

/// The value of `name`, if the flag is given (the first, if repeated).
fn flag<'a>(args: &'a [String], name: &'a str) -> Option<&'a str> {
    flag_values(args, name).next()
}

/// The value of `name` as an unsigned integer, `default` when the flag is
/// absent. A value that does not parse exits through `bench::cli::fail`.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            bench::cli::fail(
                name,
                &format!("invalid value `{v}` (expected an unsigned integer)"),
            )
        })
    })
}

/// Final sweep-report check: if any functional offload silently degraded
/// from the parallel to the serial engine (non-exact tile partition), say
/// so on stderr instead of letting the degradation pass unnoticed.
fn warn_serial_fallbacks() {
    let n = sw_athread::serial_fallback_count();
    if n > 0 {
        eprintln!(
            "WARNING: {n} functional offload(s) this run fell back from the \
             parallel to the serial engine because their tile assignment was \
             not an exact partition (see sw_athread::serial_fallback_count)"
        );
    }
}

/// `faults` subcommand: the resilience campaign — byte-identity under the
/// standard recoverable preset across all Table IV variants, a kill +
/// checkpoint-restart proof, the harsh degradation proof, and the
/// Model-mode virtual-time overhead of the fault plane. Writes
/// `results/FAULTS.json`; exits non-zero if any proof fails (the ci.sh
/// faults stage relies on it).
fn run_faults(seed: u64) {
    let dir = std::path::Path::new("results");
    let outcome = bench::faults::write_faults_json(dir, seed).expect("write results/FAULTS.json");
    println!("== Resilience: fault injection campaign (seed {seed}) ==");
    for c in &outcome.identity {
        println!(
            "{:>14}: bit_identical={} | injected {} detected {} retried {} recovered {} unrecovered {}",
            c.variant,
            c.bit_identical,
            c.counts.total_injected(),
            c.counts.detected_offload + c.counts.detected_msg,
            c.counts.retries_offload + c.counts.resends_msg,
            c.counts.recovered_offload + c.counts.recovered_msg,
            c.counts.unrecovered
        );
    }
    println!(
        "restart: resumed from step {} ({} ckpt bytes) -> identical={} (restored {})",
        outcome.restart.resumed_step,
        outcome.restart.ckpt_bytes,
        outcome.restart.restart_identical,
        outcome.restart.counts.checkpoints_restored
    );
    println!(
        "harsh: completed={} quiescent={} | degraded {} unrecovered {} blacklisted {}",
        outcome.harsh.completed,
        outcome.harsh.quiescent,
        outcome.harsh.counts.serial_degradations,
        outcome.harsh.counts.unrecovered,
        outcome.harsh.counts.slots_blacklisted
    );
    for c in &outcome.overhead {
        println!(
            "model overhead {:>14}: clean {:.3e} s/step, faulted {:.3e} s/step -> {:+.1}%",
            c.variant,
            c.clean_tps,
            c.faulted_tps,
            c.overhead_frac() * 100.0
        );
    }
    println!(
        "{} faults injected across the campaign; wrote {}",
        outcome.total_injected(),
        dir.join("FAULTS.json").display()
    );
    bench::cli::gate("faults", &outcome.violations());
}

/// `amr` subcommand: the adaptive-mesh-refinement campaign — resolution
/// economy vs uniform grids, mid-run regridding with every recompiled task
/// graph re-verified, cross-policy byte identity over whole adaptive runs,
/// kill + restart across a regrid boundary, and telemetry-driven
/// rebalancing on heterogeneous CGs. Writes `results/AMR.json`; exits
/// non-zero if any proof fails (the ci.sh amr stage relies on it).
fn run_amr(seed: u64) {
    let dir = std::path::Path::new("results");
    let outcome = bench::amr::write_amr_json(dir, seed).expect("write results/AMR.json");
    println!("== AMR: adaptive hierarchy campaign (seed {seed}) ==");
    for c in &outcome.resolution {
        println!(
            "{:>15}: {:>8} cell updates, max error {:.4e} (dt {:.3e})",
            c.label, c.cell_updates, c.max_error, c.dt
        );
    }
    let s = &outcome.adaptive.stats;
    println!(
        "adaptive: {} regrids, {} recompiles ({} clean, {} errors, {} lookahead findings), \
         fine window {:.0}% of the domain",
        s.regrids,
        s.recompiles,
        s.verified_clean,
        s.verify_errors,
        s.lookahead_violations,
        outcome.adaptive.fine_window_frac * 100.0
    );
    for c in &outcome.identity {
        println!(
            "identity {:>15}: bit_identical={} same_regrids={}",
            c.label, c.bit_identical, c.same_regrids
        );
    }
    println!(
        "restart: resumed from step {} ({} ckpt bytes), {} tail regrid(s) -> identical={}",
        outcome.restart.resumed_step,
        outcome.restart.ckpt_bytes,
        outcome.restart.tail_regrids,
        outcome.restart.restart_identical
    );
    println!(
        "rebalance: {} applied; weighted makespan {} -> {} ps ({:+.1}%)",
        outcome.rebalance.rebalances,
        outcome.rebalance.static_makespan_ps,
        outcome.rebalance.rebalanced_makespan_ps,
        -outcome.rebalance.gain_frac * 100.0
    );
    println!("wrote {}", dir.join("AMR.json").display());
    bench::cli::gate("amr", &outcome.violations());
}

/// `torture` subcommand: the seeded differential config-fuzzing campaign.
/// `--cases N` (default 200) configs are drawn from `--seed` (default 42),
/// each run through the full oracle battery (construct/complete/quiesce,
/// telemetry reconciliation, Model-vs-Functional agreement, parallel and
/// SIMD bit identity, checkpoint cadence semantics, typed rejection of
/// corrupted configs). Failures are shrunk to minimal configs and emitted
/// as ready-to-paste regression tests. Writes `results/TORTURE.json`;
/// exits non-zero on any failure (the ci.sh torture stage relies on it).
fn run_torture(seed: u64, cases: u64) {
    let dir = std::path::Path::new("results");
    let outcome =
        bench::torture::write_torture_json(dir, seed, cases).expect("write results/TORTURE.json");
    println!("== Torture: differential config fuzzing (seed {seed}, {cases} cases) ==");
    println!(
        "{} valid configs through the full battery, {} corrupted configs through the \
         rejection oracle",
        outcome.valid, outcome.rejected
    );
    for (oracle, passes) in &outcome.oracle_passes {
        println!("{passes:>6} x {oracle}");
    }
    for f in &outcome.failures {
        eprintln!("FAIL case {} [{}]", f.case, f.config);
        eprintln!("  oracle {}: {}", f.oracle, f.detail);
        eprintln!("  minimized: {}", f.minimized);
        eprintln!("  regression test:\n{}", f.regression_test);
    }
    let violations = outcome.violations();
    println!(
        "wrote {} (ok={})",
        dir.join("TORTURE.json").display(),
        violations.is_empty()
    );
    bench::cli::gate("torture", &violations);
}

/// `check` subcommand: the concurrency-checker campaign — static
/// lookahead-safety proofs over every paper problem (plus the deliberate
/// unsafe-lookahead demo, machine-verified to the picosecond), the
/// vector-clock race detector with the static/dynamic differential over
/// instrumented runs, and the DPOR interleaving explorer asserting
/// bit-identical warehouses across forced drain orders. Writes
/// `results/CHECK.json`; exits non-zero on any failure (the ci.sh check
/// stage relies on it).
fn run_check() {
    let dir = std::path::Path::new("results");
    let outcome = bench::check::write_check_json(dir).expect("write results/CHECK.json");
    println!("== Concurrency check: static proof, race detector, DPOR explorer ==");
    for c in &outcome.statics {
        println!(
            "static {:>13} cgs {:>3}: {:>4} channels, min latency {:>9} ps vs lookahead {} ps -> safe={}",
            c.problem, c.cgs, c.channels, c.min_latency_ps, c.lookahead_ps, c.safe
        );
    }
    let d = &outcome.unsafe_demo;
    println!(
        "unsafe demo: lookahead {} ps flagged ({} findings); machine delivered at {} ps, agrees={}",
        d.lookahead_ps, d.findings, d.machine_deliver_ps, d.machine_agrees
    );
    for c in &outcome.dynamics {
        println!(
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
        );
    }
    for c in &outcome.dpors {
        println!(
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
        );
    }
    let violations = outcome.violations();
    println!(
        "{} interleavings explored; wrote {} (ok={})",
        outcome.total_explored(),
        dir.join("CHECK.json").display(),
        violations.is_empty()
    );
    bench::cli::gate("check", &violations);
}

/// `comm` subcommand: the communication-layer sweep — endpoint counts ×
/// aggregation thresholds × eager/rendezvous crossover sizes, every cell
/// byte-identical to the single-endpoint baseline, telemetry-reconciled,
/// and proved safe over its coalesced channel models. Writes
/// `results/COMM.json`; exits non-zero on any violation (the ci.sh comm
/// stage relies on it).
fn run_comm() {
    let dir = std::path::Path::new("results");
    let outcome = bench::comm::write_comm_json(dir).expect("write results/COMM.json");
    println!(
        "== Comm layer: endpoints x aggregation x crossover ({} cgs {} steps {}) ==",
        outcome.problem, outcome.cgs, outcome.steps
    );
    for c in &outcome.cells {
        let xo = c
            .crossover
            .map_or_else(|| "default".to_string(), |x| x.to_string());
        println!(
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
        );
    }
    let violations = outcome.violations();
    println!(
        "overlap: sync {:.3} async {:.3} async+agg {:.3}; wrote {} (ok={})",
        outcome.sync_overlap,
        outcome.async_overlap,
        outcome.async_agg_overlap,
        dir.join("COMM.json").display(),
        violations.is_empty()
    );
    bench::cli::gate("comm", &violations);
}

/// `scale` subcommand: strong-scaling sweeps on serial vs PDES engines.
/// The paper's axis (1..128 CGs on 16x16x512) plus a beyond-paper
/// 1024-patch extension at 64..1024 CGs. Every cell asserts PDES-vs-serial
/// bit identity; writes `results/BENCH_scale.json` (the engines' wall
/// clocks are printed here, not written); exits non-zero if any cell
/// diverged, a speedup curve collapsed, or async lost to sync on the paper
/// problem while ranks still held patches to overlap.
fn run_scale() {
    let dir = std::path::Path::new("results");
    let outcome = bench::scale::write_scale_json(dir).expect("write the sweep");
    let host_threads = bench::scale::host_threads();
    println!(
        "== Strong scaling: serial vs conservative-PDES engine ({} steps, host_threads {host_threads}) ==",
        bench::scale::STEPS,
    );
    for c in &outcome.cells {
        println!(
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
        );
    }
    if host_threads <= 1 {
        eprintln!(
            "WARNING: single-core host — the PDES engine ran its rank workers \
             sequentially, so the engine wall clocks compare window-protocol \
             overhead, not parallelism"
        );
    }
    println!(
        "max swept CGs {}; wrote {}",
        outcome.max_cgs(),
        dir.join("BENCH_scale.json").display()
    );
    bench::cli::gate("scale", &outcome.violations());
}

/// `serve` subcommand: the campaign service front-end. Jobs come from
/// `--jobs-file <path>` (JSONL), `--stdin`, and/or `--demo N` (seeded
/// generator, default 64); they drain through `--workers N` pool workers
/// with the content-addressed cache under `--cache <dir>` (default
/// `results/cache`; `--no-cache` keeps it in memory). `--worker-faults
/// none|standard|harsh` turns on the worker-pool fault plan (crashes are
/// retried, never lost), `--oracle-ppm N` tunes the fraction of cache hits
/// the reproducibility oracle re-executes, `--stream N` emits a telemetry
/// line every N completions, and `--perfetto <dir>` writes a trace per
/// executed job. Writes `results/CAMPAIGN.json` (or `--out <path>`); exits
/// non-zero on any lost/duplicated/failed job, oracle mismatch, or
/// malformed job line.
fn run_serve(args: &[String], seed: u64) {
    let worker_faults = match flag(args, "--worker-faults") {
        None => None,
        Some(name) => match FaultPreset::from_name(name) {
            Some(preset) => preset.config(seed),
            None => bench::cli::fail(
                "serve",
                &format!(
                    "unknown --worker-faults preset `{name}` ({})",
                    FaultPreset::ALL.map(FaultPreset::name).join("|")
                ),
            ),
        },
    };
    let d = bench::serve::ServeArgs::default();
    let path = |name| flag(args, name).map(std::path::PathBuf::from);
    let serve_args = bench::serve::ServeArgs {
        campaign: sw_campaign::CampaignConfig {
            seed,
            worker_faults,
            workers: num_flag(args, "--workers", d.campaign.workers),
            oracle_ppm: num_flag(args, "--oracle-ppm", d.campaign.oracle_ppm),
            stream_every: num_flag(args, "--stream", d.campaign.stream_every),
            cache_dir: if args.iter().any(|a| a == "--no-cache") {
                None
            } else {
                path("--cache").or(d.campaign.cache_dir)
            },
            perfetto_dir: path("--perfetto").or(d.campaign.perfetto_dir),
            app_name: d.campaign.app_name,
        },
        read_stdin: args.iter().any(|a| a == "--stdin"),
        demo: num_flag(args, "--demo", d.demo),
        jobs_file: path("--jobs-file").or(d.jobs_file),
        out: path("--out").unwrap_or(d.out),
    };
    let summary = match bench::serve::run_serve(&serve_args) {
        Ok(s) => s,
        Err(e) => bench::cli::fail("serve", &e.to_string()),
    };
    let o = &summary.outcome;
    println!(
        "== Campaign service: {} job(s) over {} worker(s) (seed {seed}) ==",
        o.records.len(),
        o.workers
    );
    println!(
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
    );
    println!(
        "exactly-once: lost {} duplicated {} | oracle {}/{} byte-identical re-runs",
        o.lost, o.duplicated, o.oracle_passes, o.oracle_checks
    );
    println!(
        "latency p50 {} us p99 {} us | wall {} ms",
        o.p50_latency_us, o.p99_latency_us, o.wall_ms
    );
    if o.fault_counts.injected_worker_death + o.fault_counts.injected_worker_straggle > 0 {
        let f = &o.fault_counts;
        println!(
            "worker faults: {} death(s) {} straggle(s) injected | {} detected {} retried \
             {} recovered {} blacklisted",
            f.injected_worker_death,
            f.injected_worker_straggle,
            f.detected_worker,
            f.retries_job,
            f.recovered_job,
            f.workers_blacklisted
        );
    }
    for line in &summary.bad_lines {
        eprintln!("bad job line {line}");
    }
    println!("wrote {}", serve_args.out.display());
    bench::cli::gate("serve", &summary.violations());
}

/// `trace` subcommand: instrumented runs -> Perfetto trace JSON + derived
/// phase metrics (`results/TRACE_*.perfetto.json`, `results/TIMELINE.json`).
///
/// Flags: `--problem <name>` (Table III name, default 16x16x512),
/// `--cgs <n>` (default 4), `--steps <n>` (default 5), `--variant <name>`
/// (repeatable; `acc.sync` and `acc.async` are always traced so the
/// sync-vs-async overlap comparison is always present).
fn run_trace(args: &[String]) {
    let problem = flag(args, "--problem").unwrap_or("16x16x512");
    let Some(p) = bench::PROBLEMS.iter().find(|q| q.name == problem) else {
        bench::cli::fail(
            "trace",
            &format!("unknown problem `{problem}` (see Table III names)"),
        )
    };
    let cgs: usize = num_flag(args, "--cgs", 4);
    let steps: u32 = num_flag(args, "--steps", 5);
    let mut variants = vec![Variant::ACC_SYNC, Variant::ACC_ASYNC];
    for name in flag_values(args, "--variant") {
        let Some(v) = Variant::from_name(name) else {
            bench::cli::fail(
                "trace",
                &format!("unknown variant `{name}` (see Table IV names)"),
            )
        };
        if !variants.contains(&v) {
            variants.push(v);
        }
    }
    let dir = std::path::Path::new("results");
    let cases = bench::trace::write_trace_json(dir, p, &variants, cgs, steps)
        .unwrap_or_else(|e| bench::cli::fail("trace", &e.to_string()));
    println!(
        "== Telemetry trace: {} on {} CGs, {} steps ==",
        p.name, cgs, steps
    );
    for c in &cases {
        let (compute, hidden, exposed, idle) = c.phases.totals();
        println!(
            "{:>14}: {} events | overlap eff {:.3} | compute {} hidden {} exposed {} idle {} (ps) | reconciled={} -> {}",
            c.variant,
            c.events,
            c.phases.overlap_efficiency,
            compute,
            hidden,
            exposed,
            idle,
            c.reconciled,
            dir.join(&c.trace_file).display()
        );
    }
    println!(
        "wrote {} (load traces at https://ui.perfetto.dev)",
        dir.join("TIMELINE.json").display()
    );
    bench::cli::gate("trace", &bench::trace::violations(&cases));
}

/// `analyze` subcommand: every problem x variant plan through the
/// sw-analyze verifier. Writes `results/ANALYZE.json`; exits non-zero on
/// any error-severity finding (the ci.sh analyze stage relies on it).
fn run_analyze() {
    let dir = std::path::Path::new("results");
    let cells = bench::analyze::write_analyze_json(dir).expect("write results/ANALYZE.json");
    let errors = bench::analyze::total_errors(&cells);
    println!("== Static schedule verification ==");
    for c in &cells {
        println!(
            "{:>11} x {:<14} cgs {:>3} stages {}: {} tasks, {} edges, {} pairs, {} tiles -> {}",
            c.problem,
            c.report.variant,
            c.cgs,
            c.stages,
            c.report.n_tasks,
            c.report.n_edges,
            c.report.pairs_checked,
            c.report.tiles_checked,
            if c.report.is_clean() {
                "clean"
            } else {
                "FINDINGS"
            }
        );
        if !c.report.is_clean() {
            print!("{}", c.report.render());
        }
    }
    println!(
        "{} configs, {} errors; wrote {}",
        cells.len(),
        errors,
        dir.join("ANALYZE.json").display()
    );
    if errors > 0 {
        bench::cli::fail("analyze", &format!("{errors} error-severity finding(s)"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A value flag missing its value exits here, before anything runs.
    for name in VALUE_FLAGS {
        flag_values(&args, name).for_each(drop);
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
        bench::cli::fail(unknown, "unknown flag");
    }
    // Master seed for everything stochastic in the harness: the fault plans
    // of `faults` and the kernel-noise streams of `fidelity`.
    let seed: u64 = num_flag(&args, "--seed", 42);
    // Torture corpus size.
    let cases: u64 = num_flag(&args, "--cases", 200);
    // Worker-pool size: `--serial` wins, then `--jobs N`, `0` = auto.
    let jobs = num_flag(&args, "--jobs", 0);
    let jobs = if args.iter().any(|a| a == "--serial") {
        1
    } else {
        jobs
    };
    let csv = flag(&args, "--csv").map(std::path::PathBuf::from);
    // The campaigns and the flags each reads: explicit only (each writes
    // its artifact under results/ and exits non-zero through `bench::cli`
    // on a failed proof; none is a paper table, so `all` does not include
    // them). Requested campaigns run in this order; tables and figures
    // follow only if any were asked for.
    let campaigns: [Campaign; 9] = [
        (
            "trace",
            &["--problem", "--cgs", "--steps", "--variant"],
            &|| run_trace(&args),
        ),
        (
            "serve",
            &[
                "--seed",
                "--workers",
                "--worker-faults",
                "--oracle-ppm",
                "--stream",
                "--no-cache",
                "--cache",
                "--perfetto",
                "--stdin",
                "--demo",
                "--jobs-file",
                "--out",
            ],
            &|| run_serve(&args, seed),
        ),
        ("faults", &["--seed"], &|| run_faults(seed)),
        ("amr", &["--seed"], &|| run_amr(seed)),
        ("torture", &["--seed", "--cases"], &|| {
            run_torture(seed, cases)
        }),
        ("check", &[], &run_check),
        ("comm", &[], &run_comm),
        ("scale", &[], &run_scale),
        ("analyze", &[], &run_analyze),
    ];
    // The flags the paper's tables and figures read, as a group.
    let table_flags = ["--jobs", "--serial", "--csv", "--seed"];
    let is_campaign = |a: &str| campaigns.iter().any(|(name, _, _)| *name == a);
    let is_experiment = |a: &str| a == "all" || EXPERIMENTS.iter().any(|e| e.name == a);
    if let Some(unknown) = positional
        .iter()
        .find(|a| !is_campaign(a) && !is_experiment(a))
    {
        bench::cli::fail(
            unknown,
            &format!(
                "unknown subcommand (campaigns: {}; experiments: all {})",
                campaigns.map(|(name, _, _)| name).join(" "),
                EXPERIMENTS.map(|e| e.name).join(" ")
            ),
        );
    }
    // A flag no chosen subcommand reads would be silently ignored.
    let tables = positional.is_empty() || positional.iter().any(|a| !is_campaign(a));
    let read: Vec<&str> = campaigns
        .iter()
        .filter(|(name, _, _)| positional.contains(name))
        .flat_map(|(_, reads, _)| reads.iter().copied())
        .chain(tables.then_some(table_flags).into_iter().flatten())
        .collect();
    if let Some(unread) = flags.iter().find(|f| !read.contains(f)) {
        bench::cli::fail(unread, "no chosen subcommand reads this flag");
    }
    if let Some(dir) = &csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    for (name, _, run) in campaigns {
        if positional.contains(&name) {
            run();
        }
    }
    if !tables {
        return;
    }
    let all = positional.is_empty() || positional.contains(&"all");
    let chosen: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| all || positional.contains(&e.name))
        .collect();
    let sections = ex::render(&chosen, jobs, seed);
    println!("flop model: {}\n", ex::flop_model_summary());
    for s in &sections {
        println!("== {} ==", s.title);
        println!("{}", s.text);
        if let (Some(dir), Some(csv)) = (&csv, &s.csv) {
            let slug = s
                .title
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|w| !w.is_empty())
                .collect::<Vec<_>>()
                .join("_")
                .to_ascii_lowercase();
            std::fs::write(dir.join(format!("{slug}.csv")), csv).expect("write csv");
        }
    }
    warn_serial_fallbacks();
}
