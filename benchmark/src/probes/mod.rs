//! Isolated probes of the layers' public functions.
//!
//! A probe times one operation of one layer outside any workload, with
//! fixed operation counts, so its number means the same in every traced
//! run and says what that operation costs on this host today. The traced
//! run combines them with a workload's own operation counts into the
//! `*_est_share` estimates. Each probe runs a warm-up batch and then five
//! timed batches of a few tens of milliseconds, and reports the median.

use std::path::Path;
use std::time::Instant;

use crate::rep::Checks;
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{Metrics, Size};

mod engine;
mod kernels;
mod runtime;
mod services;

/// Timed batches per probe.
const BATCHES: usize = 5;

/// What every probe gets: where to put values, what to size by, where to
/// write files, and where to report a failed self-check.
pub struct ProbeCtx<'a> {
    /// Metric values by ledger name.
    pub out: &'a mut Metrics,
    /// Problem sizes.
    pub size: Size,
    /// Directory of the run's own.
    pub scratch: &'a Path,
    /// Output checks of the run.
    pub checks: &'a mut Checks,
}

impl ProbeCtx<'_> {
    /// Iterations per batch: `full` at the measured sizes, a fiftieth of it
    /// (at least one) for `--quick`.
    pub fn iters(&self, full: usize) -> usize {
        match self.size {
            Size::Full => full,
            Size::Quick => (full / 50).max(1),
        }
    }
}

/// Median over [`BATCHES`] batches, after one discarded warm-up batch, of
/// whatever `batch` measures (seconds per operation, by convention).
pub fn median_of_batches(mut batch: impl FnMut() -> f64) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&samples)
}

/// Median seconds per operation; `batch` does the work and returns how
/// many operations it did, and all of it is timed.
pub fn secs_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    median_of_batches(|| {
        let t = Instant::now();
        let ops = batch();
        t.elapsed().as_secs_f64() / ops.max(1) as f64
    })
}

/// Run every probe, each under a span of its layer.
pub fn run_all(
    tr: &mut Tracer,
    size: Size,
    scratch: &Path,
    out: &mut Metrics,
    checks: &mut Checks,
) {
    let mut ctx = ProbeCtx {
        out,
        size,
        scratch,
        checks,
    };
    type Probe = fn(&mut ProbeCtx<'_>);
    let probes: [(&'static str, Probe); 11] = [
        ("sw-math.probe", kernels::sw_math),
        ("burgers.probe", kernels::burgers),
        ("sw-athread.probe", kernels::sw_athread),
        ("rayon.probe", kernels::rayon_shim),
        ("sw-sim.probe", engine::sw_sim),
        ("sw-mpi.probe", engine::sw_mpi),
        ("core.probe", runtime::core),
        ("analyze.probe", runtime::analyze),
        ("telemetry.probe", services::telemetry),
        ("resilience.probe", services::resilience),
        ("campaign.probe", services::campaign_store),
    ];
    for (name, probe) in probes {
        tr.span(name, 0, |_| probe(&mut ctx));
    }
}
