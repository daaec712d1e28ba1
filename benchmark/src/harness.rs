//! The run shape: set-ups, warm-up, timed repetitions, result.
//!
//! A run is one process and one workload. Work per repetition is fixed;
//! `--seconds` only decides how many repetitions are timed (never fewer
//! than five). A set-up is input generation plus one untimed warm-up
//! repetition, whose outputs become the reference every timed repetition
//! must reproduce; it is done three times and `setup_s` is the median, so
//! that work moved out of the timed loop into set-up shows there. Reported
//! values are medians over the timed repetitions, with quartiles.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::{esc, num};
use crate::ledger::{self, MetricDef};
use crate::rep::{Checks, Rep};
use crate::span::Tracer;
use crate::stats::{coeff_of_variation, median, quartiles, Quartiles};
use crate::workloads::{self, Metrics, Size, Workload};
use crate::{alloc, host, layers, probes};

/// Set-ups per end-to-end run.
const SETUPS: usize = 3;
/// Fewest timed repetitions of an end-to-end run.
const MIN_REPS: usize = 5;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed repetitions should fill.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
    /// Problem sizes.
    pub size: Size,
    /// Directory the result and trace files go to.
    pub out: PathBuf,
    /// Commit the binary was built from, as told by `run.sh`.
    pub commit: String,
}

/// What one repetition left behind.
#[derive(Clone, Debug)]
pub struct RepSummary {
    /// Wall time of the repetition, seconds.
    pub wall_s: f64,
    /// Simulations (job answers) attempted.
    pub sims: u64,
    /// Simulations that passed every check.
    pub sims_ok: u64,
    /// Sum of virtual time per step, picoseconds.
    pub virt_step_ps: u128,
    /// Exact counts of the repetition.
    pub counts: BTreeMap<&'static str, f64>,
    /// Values only a reference repetition computes.
    pub reference_values: BTreeMap<&'static str, f64>,
    /// Host-time values the program reported about itself.
    pub observed: BTreeMap<&'static str, f64>,
    /// Fingerprint of the deterministic outputs, counts included.
    pub digest: u64,
    /// Output checks.
    pub checks: Checks,
}

/// Run one repetition of `w` under a `bench.rep` span; `reference` marks
/// a set-up's warm-up repetition (see [`Rep::reference`]).
pub fn one_rep(w: &dyn Workload, tr: &mut Tracer, reference: bool) -> RepSummary {
    let t = Instant::now();
    let mut s = tr.span("bench.rep", 0, |tr| {
        let mut rep = Rep::new(tr, reference);
        w.repetition(&mut rep);
        RepSummary {
            wall_s: 0.0,
            sims: rep.sims,
            sims_ok: rep.sims_ok,
            virt_step_ps: rep.virt_step_ps,
            digest: rep.digest,
            counts: rep.counts,
            reference_values: rep.reference_values,
            observed: rep.observed,
            checks: rep.checks,
        }
    });
    s.wall_s = t.elapsed().as_secs_f64();
    let bits: Vec<u64> = s.counts.values().map(|v| v.to_bits()).collect();
    s.digest = crate::rep::fold(s.digest, &bits);
    s.digest = crate::rep::fold(s.digest, &[s.sims, s.virt_step_ps as u64]);
    s
}

/// One reported metric value.
#[derive(Clone, Copy, Debug)]
pub struct Reported {
    /// The ledger entry.
    pub def: &'static MetricDef,
    /// Median and quartiles over the run's samples.
    pub q: Quartiles,
}

/// The outcome of a run.
pub struct RunResult {
    /// The options the run was made with.
    pub opts: Options,
    /// Every metric of the run's mode, in ledger order.
    pub metrics: Vec<Reported>,
    /// All output checks of the run.
    pub checks: Checks,
    /// Simulations attempted in the measured repetitions.
    pub attempted: u64,
    /// Of those, the ones that failed a check.
    pub failed: u64,
    /// Wall time of each measured repetition.
    pub rep_wall_s: Vec<f64>,
    /// Wall time of each set-up.
    pub setup_wall_s: Vec<f64>,
    /// Fingerprint of the generated inputs.
    pub inputs_digest: u64,
    /// Fingerprint of the repetition outputs.
    pub outputs_digest: u64,
    /// Self time per layer over the traced repetitions, seconds.
    pub layer_self_s: BTreeMap<&'static str, f64>,
    /// Total duration of the traced repetitions, seconds.
    pub traced_rep_s: f64,
    /// Chrome trace of the traced run.
    pub trace_json: Option<String>,
}

impl RunResult {
    /// Every check held and no simulation failed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.failed == 0
    }

    /// Value of the metric called `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.q.median)
    }
}

fn single(v: f64) -> Quartiles {
    Quartiles {
        n: 1,
        q1: v,
        median: v,
        q3: v,
    }
}

/// Compare a repetition against the reference repetition.
fn check_against(reference: &RepSummary, s: &RepSummary, checks: &mut Checks, what: &str) {
    checks.check(
        s.digest == reference.digest
            && s.virt_step_ps == reference.virt_step_ps
            && s.sims == reference.sims,
        || {
            format!(
                "{what}: outputs differ from the reference (virt {} vs {} ps, {} vs {} sims, \
                 digest {:016x} vs {:016x})",
                s.virt_step_ps,
                reference.virt_step_ps,
                s.sims,
                reference.sims,
                s.digest,
                reference.digest
            )
        },
    );
}

/// Run `opts.workload` end to end or traced. `started` is the instant the
/// process began, so the first set-up includes process start. `None` when
/// the workload name is unknown.
pub fn run(opts: Options, started: Instant) -> Option<RunResult> {
    let scratch = opts.out.join(format!("tmp-{}", std::process::id()));
    let _guard = ScratchDir::create(&scratch);
    if opts.trace {
        run_traced(opts, &scratch)
    } else {
        run_end_to_end(opts, &scratch, started)
    }
}

fn run_end_to_end(opts: Options, scratch: &Path, started: Instant) -> Option<RunResult> {
    let mut tr = Tracer::off();
    let mut checks = Checks::default();
    let mut setup_wall_s = Vec::new();
    let mut warm_wall_s = Vec::new();
    let mut built: Option<(Box<dyn Workload>, RepSummary)> = None;
    for i in 0..SETUPS {
        let t = if i == 0 { started } else { Instant::now() };
        let w = workloads::generate(&opts.workload, opts.seed, opts.size, scratch)?;
        let reference = one_rep(w.as_ref(), &mut tr, true);
        setup_wall_s.push(t.elapsed().as_secs_f64());
        warm_wall_s.push(reference.wall_s);
        if let Some((_, first)) = &built {
            check_against(first, &reference, &mut checks, "set-up");
        }
        built = Some((w, reference));
    }
    let (w, reference) = built.expect("at least one set-up");
    let reps = match opts.size {
        Size::Full => ((opts.seconds / median(&warm_wall_s)).round() as usize).clamp(MIN_REPS, 64),
        Size::Quick => 2,
    };
    let (mut rep_wall_s, mut sims_rate) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    checks.absorb(reference.checks.clone());
    for i in 0..reps {
        let s = one_rep(w.as_ref(), &mut tr, false);
        check_against(&reference, &s, &mut checks, &format!("repetition {i}"));
        attempted += s.sims;
        failed += s.sims - s.sims_ok;
        rep_wall_s.push(s.wall_s);
        sims_rate.push(s.sims_ok as f64 / s.wall_s);
        checks.absorb(s.checks);
    }
    let metrics = ledger::END_TO_END
        .iter()
        .map(|def| Reported {
            def,
            q: match def.name {
                "setup_s" => quartiles(&setup_wall_s),
                "wall_s" => quartiles(&rep_wall_s),
                "sims_per_s" => quartiles(&sims_rate),
                "peak_rss_mb" => single(host::peak_rss_mb().unwrap_or(0.0)),
                "virt_step_s" => single(reference.virt_step_ps as f64 * 1e-12),
                other => unreachable!("end-to-end metric `{other}` has no measurement"),
            },
        })
        .collect();
    Some(RunResult {
        inputs_digest: w.inputs_digest(),
        outputs_digest: reference.digest,
        opts,
        metrics,
        checks,
        attempted,
        failed,
        rep_wall_s,
        setup_wall_s,
        layer_self_s: BTreeMap::new(),
        traced_rep_s: 0.0,
        trace_json: None,
    })
}

/// Traced repetitions per traced run (and as many untraced ones beside
/// them, for the tracing overhead).
const TRACED_REPS: usize = 2;

fn run_traced(opts: Options, scratch: &Path) -> Option<RunResult> {
    let mut tr = Tracer::on();
    let mut checks = Checks::default();
    let mut values: Metrics = BTreeMap::new();
    // Probes first, in a process that has done nothing else yet: run after
    // the repetitions they read differently from workload to workload
    // (after `campaign-mixed`, store puts were 15x and thread spawns 2x
    // slower than after `model-scale`).
    tr.span("bench.probes", 0, |tr| {
        probes::run_all(tr, opts.size, scratch, &mut values, &mut checks)
    });
    tr.set_enabled(false);
    let t = Instant::now();
    let w = workloads::generate(&opts.workload, opts.seed, opts.size, scratch)?;
    let reference = one_rep(w.as_ref(), &mut tr, true);
    let setup_wall_s = vec![t.elapsed().as_secs_f64()];
    checks.absorb(reference.checks.clone());

    // Untraced and traced repetitions alternate, so that drift of the host
    // hits both sides of the overhead ratio alike.
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut allocs = Vec::new();
    let mut last_traced = None;
    for i in 0..2 * TRACED_REPS {
        let traced = i % 2 == 1;
        tr.set_enabled(traced);
        if traced {
            alloc::start();
        }
        let s = one_rep(w.as_ref(), &mut tr, false);
        if traced {
            allocs.push(alloc::stop());
        }
        check_against(&reference, &s, &mut checks, &format!("repetition {i}"));
        attempted += s.sims;
        failed += s.sims - s.sims_ok;
        checks.absorb(s.checks.clone());
        if traced {
            traced_s.push(s.wall_s);
            last_traced = Some(s);
        } else {
            plain_s.push(s.wall_s);
        }
    }
    let last_traced = last_traced.expect("at least one traced repetition");
    let layer_self_s = tr.layer_self_s("bench.rep");
    let traced_rep_s = tr.total_under("bench.rep", "bench.rep").1;
    checks.check(
        (layer_self_s.values().sum::<f64>() - traced_rep_s).abs() <= 0.02 * traced_rep_s,
        || "per-layer self times do not add up to the repetition spans".to_string(),
    );

    tr.set_enabled(true);
    tr.span("bench.extras", 0, |tr| w.traced_extras(tr, &mut values));
    values.extend(reference.reference_values.iter().map(|(k, v)| (*k, *v)));
    values.extend(last_traced.observed.iter().map(|(k, v)| (*k, *v)));
    layers::derive(&last_traced, &tr, TRACED_REPS, &mut values);

    let rep_wall_s: Vec<f64> = plain_s.iter().chain(&traced_s).copied().collect();
    values.insert(
        "bench.trace_overhead_frac",
        (median(&traced_s) - median(&plain_s)) / median(&plain_s),
    );
    values.insert("bench.rep_cv", coeff_of_variation(&rep_wall_s));
    values.insert(
        "bench.alloc_calls",
        allocs.iter().map(|a| a.calls as f64).sum::<f64>() / allocs.len() as f64,
    );
    values.insert(
        "bench.peak_heap_mb",
        allocs.iter().map(|a| a.peak_bytes).max().unwrap_or(0) as f64 / (1024.0 * 1024.0),
    );
    let metrics = ledger::PER_LAYER
        .iter()
        .map(|def| Reported {
            def,
            q: single(values.get(def.name).copied().unwrap_or(0.0)),
        })
        .collect();
    let trace_json = Some(tr.chrome_trace(&opts.workload));
    Some(RunResult {
        inputs_digest: w.inputs_digest(),
        outputs_digest: reference.digest,
        opts,
        metrics,
        checks,
        attempted,
        failed,
        rep_wall_s,
        setup_wall_s,
        layer_self_s,
        traced_rep_s,
        trace_json,
    })
}

/// The run's scratch directory (`out/tmp-<pid>`): created on entry,
/// removed when the run ends, however it ends short of a kill.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(path: &Path) -> ScratchDir {
        std::fs::create_dir_all(path)
            .unwrap_or_else(|e| panic!("cannot create scratch directory {}: {e}", path.display()));
        ScratchDir(path.to_path_buf())
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here, and `drop` must
        // not panic.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Print every metric as `name value unit`, one per line.
pub fn print_metrics(r: &RunResult) {
    for m in &r.metrics {
        println!("{} {} {}", m.def.name, num(m.q.median), m.def.unit);
    }
}

/// The one-line JSON object the benchmark contract asks for.
pub fn contract_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.def.name,
                num(m.q.median),
                m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

/// The result file: the metrics with their quartiles, the host, the run
/// shape and the checks.
pub fn result_json(r: &RunResult) -> String {
    use std::fmt::Write as _;
    let o = &r.opts;
    let list = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ");
    let mut s = String::from("{\n  \"kind\": \"swbench-result\",\n");
    let _ = writeln!(s, "  \"workload\": \"{}\",", esc(&o.workload));
    let _ = writeln!(s, "  \"seed\": {},", o.seed);
    let _ = writeln!(s, "  \"trace\": {},", o.trace);
    let _ = writeln!(s, "  \"quick\": {},", o.size == Size::Quick);
    s.push_str("  \"claim\": null,\n");
    let _ = writeln!(
        s,
        "  \"host\": {{\"commit\": \"{}\", \"nproc\": {}, \"cpu_model\": \"{}\", \
         \"threads\": {}, \"degenerate_host\": {}}},",
        esc(&o.commit),
        host::nproc(),
        esc(&host::cpu_model()),
        host::bench_threads(),
        host::nproc() < 2
    );
    let _ = writeln!(
        s,
        "  \"run\": {{\"seconds\": {}, \"setup_wall_s\": [{}], \"rep_wall_s\": [{}], \
         \"inputs_digest\": \"{:016x}\", \"outputs_digest\": \"{:016x}\"}},",
        num(o.seconds),
        list(&r.setup_wall_s),
        list(&r.rep_wall_s),
        r.inputs_digest,
        r.outputs_digest
    );
    s.push_str("  \"metrics\": {\n");
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i + 1 < r.metrics.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"q1\": {}, \"q3\": {}}}{sep}",
            m.def.name,
            num(m.q.median),
            m.def.unit,
            m.q.n,
            num(m.q.q1),
            num(m.q.q3)
        );
    }
    s.push_str("  },\n");
    if o.trace {
        let layers: Vec<String> = r
            .layer_self_s
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect();
        let _ = writeln!(
            s,
            "  \"layer_self_s\": {{{}}},\n  \"traced_rep_s\": {},",
            layers.join(", "),
            num(r.traced_rep_s)
        );
    }
    let failures: Vec<String> = r
        .checks
        .failures
        .iter()
        .map(|f| format!("\"{}\"", esc(f)))
        .collect();
    let _ = writeln!(
        s,
        "  \"checks\": {{\"attempted\": {}, \"failed\": {}, \"failures\": [{}]}},",
        r.checks.attempted,
        r.checks.failed,
        failures.join(", ")
    );
    let _ = writeln!(
        s,
        "  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {}\n}}",
        r.correct(),
        r.attempted,
        r.failed
    );
    s
}

/// Write the result file (and the trace of a traced run) under `out`.
pub fn write_files(r: &RunResult) -> std::io::Result<()> {
    let o = &r.opts;
    std::fs::create_dir_all(&o.out)?;
    let stem = if o.trace { "layers" } else { "result" };
    std::fs::write(
        o.out.join(format!("{stem}-{}.json", o.workload)),
        result_json(r),
    )?;
    if let Some(trace) = &r.trace_json {
        std::fs::write(o.out.join(format!("trace-{}.json", o.workload)), trace)?;
    }
    Ok(())
}
