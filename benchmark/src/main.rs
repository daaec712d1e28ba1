//! `swbench run | agree | manifest` — see `benchmark/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use swbench::harness::{self, Options};
use swbench::workloads::Size;
use swbench::{agree, alloc, ledger};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  swbench run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR] [--commit ID]
  swbench agree <setA-dir> <setB-dir> [--manifest BENCHMARK.json]
  swbench manifest";

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: ledger::RUN_SECONDS as f64,
        trace: false,
        size: Size::Full,
        out: PathBuf::from("benchmark/out"),
        commit: "unknown".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => o.workload = value()?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => o.size = Size::Quick,
            "--out" => o.out = PathBuf::from(value()?),
            "--commit" => o.commit = value()?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !ledger::WORKLOADS.iter().any(|w| w.name == o.workload) {
        let names: Vec<_> = ledger::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            names.join(", "),
            o.workload
        ));
    }
    Ok(o)
}

fn run(args: &[String], started: Instant) -> Result<bool, String> {
    let opts = parse_run(args)?;
    if cfg!(debug_assertions) && opts.size == Size::Full {
        return Err(
            "this is a debug build; timings of it mean nothing (build with --release, \
             or pass --quick to smoke-test)"
                .to_string(),
        );
    }
    let result = harness::run(opts, started).ok_or("unknown workload")?;
    harness::write_files(&result).map_err(|e| format!("writing results: {e}"))?;
    harness::print_metrics(&result);
    for f in &result.checks.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", harness::contract_line(&result));
    Ok(result.correct())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], started),
        Some("agree") => agree::main(&args[1..]),
        Some("manifest") => {
            print!("{}", ledger::manifest());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("swbench: {msg}");
            ExitCode::from(2)
        }
    }
}
