//! Self-tests of the harness at `--quick` sizes.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use swbench::harness::{self, one_rep, Options};
use swbench::json::Json;
use swbench::ledger::{self, END_TO_END, PER_LAYER, WORKLOADS};
use swbench::span::Tracer;
use swbench::workloads::{self, Size};

/// A scratch directory of the test's own, removed when it goes.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("swbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn options(workload: &str, trace: bool, out: &Path) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 5,
        seconds: 1.0,
        trace,
        size: Size::Quick,
        out: out.to_path_buf(),
        commit: "test".to_string(),
    }
}

#[test]
fn the_seed_fixes_inputs_virtual_clock_and_counts() {
    let scratch = Scratch::new("seed");
    for w in &WORKLOADS {
        let build = |seed| workloads::generate(w.name, seed, Size::Quick, &scratch.0).unwrap();
        let (a, b, other) = (build(5), build(5), build(6));
        assert_eq!(a.inputs_digest(), b.inputs_digest(), "{}", w.name);
        assert_ne!(a.inputs_digest(), other.inputs_digest(), "{}", w.name);
        let mut tr = Tracer::off();
        let (ra, rb) = (
            one_rep(a.as_ref(), &mut tr, false),
            one_rep(b.as_ref(), &mut tr, false),
        );
        assert_eq!(ra.virt_step_ps, rb.virt_step_ps, "{}", w.name);
        assert_eq!(ra.counts, rb.counts, "{}", w.name);
        assert_eq!(ra.digest, rb.digest, "{}", w.name);
        assert!(ra.virt_step_ps > 0 && ra.sims > 0, "{}", w.name);
        assert_eq!(ra.sims, ra.sims_ok, "{}: {:?}", w.name, ra.checks.failures);
        assert_eq!(ra.checks.failed, 0, "{}: {:?}", w.name, ra.checks.failures);
    }
}

#[test]
fn an_end_to_end_run_reports_exactly_the_end_to_end_metrics() {
    let scratch = Scratch::new("e2e");
    let r = harness::run(options("model-scale", false, &scratch.0), Instant::now()).unwrap();
    assert!(r.correct(), "{:?}", r.checks.failures);
    let names: Vec<_> = r.metrics.iter().map(|m| m.def.name).collect();
    let ledger: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, ledger);
    for m in &r.metrics {
        assert!(m.q.median > 0.0, "{} is {}", m.def.name, m.q.median);
    }
    // The contract line and the result file are valid JSON with the keys
    // the contract names.
    let line = Json::parse(&harness::contract_line(&r)).unwrap();
    let keys: Vec<_> = line.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let file = Json::parse(&harness::result_json(&r)).unwrap();
    assert_eq!(file.get("claim"), Some(&Json::Null));
    assert_eq!(
        file.get("kind").and_then(Json::as_str),
        Some("swbench-result")
    );
    // The run removed its scratch directory.
    harness::write_files(&r).unwrap();
    let left: Vec<_> = std::fs::read_dir(&scratch.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(left, ["result-model-scale.json"]);
}

#[test]
fn a_traced_run_has_a_well_formed_span_tree_and_every_layer_metric() {
    let scratch = Scratch::new("trace");
    let r = harness::run(options("traced-comm", true, &scratch.0), Instant::now()).unwrap();
    assert!(r.correct(), "{:?}", r.checks.failures);
    let names: Vec<_> = r.metrics.iter().map(|m| m.def.name).collect();
    let ledger: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, ledger);
    assert!(r.metrics.iter().all(|m| m.q.median.is_finite()));
    assert!(r.value("telemetry.records").unwrap() > 0.0);
    assert!(r.value("sw-mpi.msgs_per_flush").unwrap() >= 1.0);

    // Children lie inside their parents, and self times are what is left.
    let trace = Json::parse(r.trace_json.as_ref().unwrap()).unwrap();
    let spans: Vec<&Json> = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert!(spans.len() > 20);
    let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap();
    let arg = |e: &Json, k: &str| e.get("args").unwrap().get(k).and_then(Json::as_f64);
    let mut child_us = vec![0.0; spans.len()];
    for e in &spans {
        assert!(arg(e, "self_us").unwrap() >= 0.0);
        if let Some(p) = arg(e, "parent") {
            let parent = spans[p as usize];
            assert!(num(e, "ts") >= num(parent, "ts") - 1e-3);
            assert!(num(e, "ts") + num(e, "dur") <= num(parent, "ts") + num(parent, "dur") + 1e-3);
            child_us[p as usize] += num(e, "dur");
        }
    }
    for (e, c) in spans.iter().zip(&child_us) {
        assert!((num(e, "dur") - c - arg(e, "self_us").unwrap()).abs() < 1e-2);
    }
    // Per-layer self times add up to the repetition spans.
    let layers: f64 = r.layer_self_s.values().sum();
    assert!((layers - r.traced_rep_s).abs() <= 0.02 * r.traced_rep_s);
    assert!(r.layer_self_s.contains_key("telemetry") && r.layer_self_s.contains_key("core"));
}

#[test]
fn benchmark_json_is_the_ledger_and_within_the_contract_limits() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        text,
        ledger::manifest(),
        "regenerate with `swbench manifest`"
    );
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).unwrap();
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{} {}", m.name, m.unit);
        assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
    }
    let setup = ledger::metric("setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds));
}
