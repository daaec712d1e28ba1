//! On a host with one hardware thread the benchmark reports no thread
//! ratio. Its own test binary, because it sets the process environment.

use std::time::Instant;

use swbench::harness::{self, Options};
use swbench::layers::THREAD_RATIOS;
use swbench::workloads::Size;

#[test]
fn one_hardware_thread_is_reported_as_degenerate_not_as_a_ratio() {
    std::env::set_var("SWBENCH_NPROC", "1");
    let out = std::env::temp_dir().join(format!("swbench-degenerate-{}", std::process::id()));
    let opts = Options {
        workload: "campaign-mixed".to_string(),
        seed: 2,
        seconds: 1.0,
        trace: true,
        size: Size::Quick,
        out: out.clone(),
        commit: "test".to_string(),
    };
    let r = harness::run(opts, Instant::now()).unwrap();
    assert!(r.correct(), "{:?}", r.checks.failures);
    for name in THREAD_RATIOS {
        assert_eq!(r.value(name), Some(0.0), "{name}");
    }
    assert!(harness::result_json(&r).contains("\"degenerate_host\": true"));
    assert!(r.value("campaign.cold_jobs_per_s").unwrap() > 0.0);
    let _ = std::fs::remove_dir_all(&out);
}
