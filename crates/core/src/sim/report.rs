//! Run reports: the measurements the paper's evaluation section derives its
//! tables and figures from.

use sw_sim::{FlopCounters, MachineConfig, SimDur, SimTime};

/// Aggregate results of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Variant name (paper Table IV).
    pub variant: &'static str,
    /// Timesteps executed.
    pub steps: u32,
    /// Ranks (CGs) used.
    pub n_ranks: usize,
    /// Virtual completion instant of each timestep (max over ranks).
    pub step_end: Vec<SimTime>,
    /// Total virtual run time (completion of the last step).
    pub total_time: SimDur,
    /// Hardware-counter flops, summed over CGs, whole run.
    pub flops: FlopCounters,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes on the network.
    pub net_bytes: u64,
    /// Kernels executed.
    pub kernels: u64,
    /// Discrete events processed.
    pub events: u64,
    /// Total MPE busy time across ranks.
    pub mpe_busy: SimDur,
    /// Total CPE-cluster busy time across ranks.
    pub cpe_busy: SimDur,
    /// Functional offloads demoted from parallel to serial execution during
    /// this run because their tile assignment was not an exact partition of
    /// the output (delta of `sw_athread::serial_fallback_count` over the
    /// run). Nonzero means some offloads lost CPE-level parallelism; the
    /// sweep report surfaces it so the degradation is never silent.
    pub serial_fallbacks: u64,
    /// MPI send/recv handles still open when the run finished, as
    /// `(rank, tag)` pairs — in-flight sends by source rank, un-matched
    /// receives by posting rank. Always empty for a correct scheduler
    /// (debug builds additionally assert quiescence at end of run; faulted
    /// runs assert it in every profile).
    pub leaked_handles: Vec<(sw_mpi::Rank, sw_mpi::Tag)>,
    /// Fault-plane counters (injected / detected / recovered / degraded)
    /// when the run was configured with `SchedulerOptions::faults`;
    /// `None` otherwise.
    pub faults: Option<sw_resilience::FaultCounts>,
}

impl RunReport {
    /// Duration of each individual timestep (differences of the global
    /// step-completion instants).
    pub fn step_durations(&self) -> Vec<SimDur> {
        let mut out = Vec::with_capacity(self.step_end.len());
        let mut prev = SimTime::ZERO;
        for &t in &self.step_end {
            out.push(t.since(prev));
            prev = t;
        }
        out
    }

    /// Wall time per timestep — the paper's performance indicator (§VII-A).
    pub fn time_per_step(&self) -> SimDur {
        if self.steps == 0 {
            SimDur::ZERO
        } else {
            self.total_time / self.steps as u64
        }
    }

    /// Floating-point performance in Gflop/s: `N_fp / T_step * 1e-9` with
    /// the per-step flop count from the hardware counters (paper §VII-E).
    pub fn gflops(&self) -> f64 {
        let t = self.total_time.as_secs_f64();
        if t == 0.0 {
            return 0.0;
        }
        self.flops.total() as f64 / t / 1e9
    }

    /// Floating-point efficiency: achieved Gflop/s over the theoretical peak
    /// of the running CGs (paper Fig 10).
    pub fn fp_efficiency(&self, cfg: &MachineConfig) -> f64 {
        self.gflops() / (cfg.cg_peak_gflops() * self.n_ranks as f64)
    }

    /// Strong-scaling efficiency of this run against a baseline run of the
    /// same problem on fewer CGs: `(T_base * N_base) / (T * N)`.
    pub fn scaling_efficiency(&self, base: &RunReport) -> f64 {
        let t = self.time_per_step().as_secs_f64() * self.n_ranks as f64;
        let tb = base.time_per_step().as_secs_f64() * base.n_ranks as f64;
        tb / t
    }

    /// The paper's async-over-sync improvement metric
    /// `(T_sync - T_async) / T_async` (§VII-C), where `self` is the async
    /// run.
    pub fn improvement_over(&self, sync: &RunReport) -> f64 {
        let ta = self.time_per_step().as_secs_f64();
        let ts = sync.time_per_step().as_secs_f64();
        (ts - ta) / ta
    }

    /// Speedup of this run over a baseline (paper §VII-D's
    /// `T_host / T_acc`).
    pub fn boost_over(&self, base: &RunReport) -> f64 {
        base.time_per_step().as_secs_f64() / self.time_per_step().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(n_ranks: usize, steps: u32, secs: f64, flops: u64) -> RunReport {
        let mut f = FlopCounters::new();
        f.add(sw_sim::FlopCategory::Stencil, flops);
        RunReport {
            variant: "acc.async",
            steps,
            n_ranks,
            step_end: vec![],
            total_time: SimDur::from_secs_f64(secs),
            flops: f,
            messages: 0,
            net_bytes: 0,
            kernels: 0,
            events: 0,
            mpe_busy: SimDur::ZERO,
            cpe_busy: SimDur::ZERO,
            serial_fallbacks: 0,
            leaked_handles: vec![],
            faults: None,
        }
    }

    #[test]
    fn per_step_and_gflops() {
        let r = report(1, 10, 5.0, 50_000_000_000);
        assert_eq!(r.time_per_step(), SimDur::from_secs_f64(0.5));
        assert!((r.gflops() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn step_durations_are_differences() {
        let mut r = report(1, 3, 6.0, 1);
        r.step_end = vec![SimTime(10), SimTime(30), SimTime(60)];
        assert_eq!(r.step_durations(), vec![SimDur(10), SimDur(20), SimDur(30)]);
    }

    #[test]
    fn efficiency_against_peak() {
        let cfg = MachineConfig::sw26010();
        // 765.6 Gflop/s peak per CG; 7.656 achieved on one CG -> 1%.
        let r = report(1, 1, 1.0, 7_656_000_000);
        assert!((r.fp_efficiency(&cfg) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn scaling_efficiency_is_one_for_perfect_scaling() {
        let base = report(2, 10, 8.0, 1);
        let scaled = report(8, 10, 2.0, 1);
        assert!((scaled.scaling_efficiency(&base) - 1.0).abs() < 1e-12);
        // Half-perfect: same per-step time on 2x CGs.
        let bad = report(16, 10, 2.0, 1);
        assert!((bad.scaling_efficiency(&base) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn improvement_and_boost() {
        let sync = report(1, 10, 12.0, 1);
        let async_ = report(1, 10, 10.0, 1);
        assert!((async_.improvement_over(&sync) - 0.2).abs() < 1e-12);
        assert!((async_.boost_over(&sync) - 1.2).abs() < 1e-12);
    }
}
