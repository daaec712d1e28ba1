//! Modeled collectives.
//!
//! Uintah issues small MPI reductions each timestep (the stable timestep
//! size / error norms — the "MPI reduce tasks" of paper §V-C step 3d). Full
//! point-to-point emulation of a reduction tree would bloat the schedulers
//! for no evaluation-relevant gain, so collectives are modeled in closed
//! form: an allreduce over `n` ranks completes `2*ceil(log2 n)` hops after
//! the last rank contributes (binomial reduce + broadcast), each hop costing
//! one network latency plus a small per-hop software overhead.

use sw_sim::{MachineConfig, SimDur, SimTime};
use sw_telemetry::{Event, Lane, Recorder};

use crate::comm::Rank;

/// Reduction operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Minimum (timestep control).
    Min,
    /// Maximum (error norms).
    Max,
    /// Sum (integrals).
    Sum,
}

impl ReduceOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Sum => a + b,
        }
    }

    fn identity(self) -> f64 {
        match self {
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Sum => 0.0,
        }
    }
}

/// One modeled allreduce. Create per timestep, have every rank
/// [`contribute`](ModeledAllreduce::contribute), then poll
/// [`result_at`](ModeledAllreduce::result_at).
#[derive(Debug)]
pub struct ModeledAllreduce {
    op: ReduceOp,
    pending: Vec<bool>,
    remaining: usize,
    acc: f64,
    last_contribution: SimTime,
    hop: SimDur,
    hops: u32,
    /// Telemetry sink + step label (disabled/0 by default).
    rec: Recorder,
    step: usize,
}

impl ModeledAllreduce {
    /// An allreduce over `n` ranks with operator `op` under machine `cfg`.
    pub fn new(cfg: &MachineConfig, n: usize, op: ReduceOp) -> Self {
        assert!(n >= 1);
        let levels = usize::BITS - (n - 1).leading_zeros(); // ceil(log2 n)
        ModeledAllreduce {
            op,
            pending: vec![false; n],
            remaining: n,
            acc: op.identity(),
            last_contribution: SimTime::ZERO,
            hop: cfg.net_latency + cfg.mpi_call_overhead,
            hops: 2 * levels,
            rec: Recorder::off(),
            step: 0,
        }
    }

    /// Thread a telemetry recorder through contributions, labelled with the
    /// timestep this reduction belongs to.
    pub fn with_telemetry(mut self, rec: Recorder, step: usize) -> Self {
        self.rec = rec;
        self.step = step;
        self
    }

    /// Rank `r` contributes `value` at `now`.
    ///
    /// # Panics
    /// Panics on a duplicate contribution.
    pub fn contribute(&mut self, r: Rank, value: f64, now: SimTime) {
        assert!(!self.pending[r], "rank {r} contributed twice");
        self.pending[r] = true;
        self.remaining -= 1;
        self.acc = self.op.apply(self.acc, value);
        self.last_contribution = self.last_contribution.max(now);
        self.rec.record(
            r,
            now.0,
            Lane::Mpe,
            Event::ReduceContribute { step: self.step },
        );
        if let Some(m) = self.rec.metrics() {
            m.reduce_contributions.inc();
        }
    }

    /// Whether every rank has contributed.
    pub fn all_contributed(&self) -> bool {
        self.remaining == 0
    }

    /// When, and with what value, the reduced result is available on every
    /// rank; `None` until all ranks have contributed.
    pub fn result_at(&self) -> Option<(SimTime, f64)> {
        if self.remaining > 0 {
            return None;
        }
        Some((
            self.last_contribution + self.hop * self.hops as u64,
            self.acc,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::sw26010()
    }

    #[test]
    fn min_over_ranks() {
        let mut a = ModeledAllreduce::new(&cfg(), 4, ReduceOp::Min);
        a.contribute(0, 3.0, SimTime(100));
        a.contribute(1, 1.0, SimTime(50));
        a.contribute(2, 2.0, SimTime(200));
        assert!(a.result_at().is_none());
        a.contribute(3, 5.0, SimTime(70));
        let (t, v) = a.result_at().unwrap();
        assert_eq!(v, 1.0);
        // 4 ranks -> 2 levels -> 4 hops after the last contribution (t=200).
        let hop = cfg().net_latency + cfg().mpi_call_overhead;
        assert_eq!(t, SimTime(200) + hop * 4);
    }

    #[test]
    fn sum_and_max_ops() {
        let mut s = ModeledAllreduce::new(&cfg(), 2, ReduceOp::Sum);
        s.contribute(0, 1.5, SimTime::ZERO);
        s.contribute(1, 2.5, SimTime::ZERO);
        assert_eq!(s.result_at().unwrap().1, 4.0);
        let mut m = ModeledAllreduce::new(&cfg(), 2, ReduceOp::Max);
        m.contribute(0, -1.0, SimTime::ZERO);
        m.contribute(1, -3.0, SimTime::ZERO);
        assert_eq!(m.result_at().unwrap().1, -1.0);
    }

    #[test]
    fn single_rank_completes_instantly() {
        let mut a = ModeledAllreduce::new(&cfg(), 1, ReduceOp::Min);
        a.contribute(0, 9.0, SimTime(42));
        let (t, v) = a.result_at().unwrap();
        assert_eq!((t, v), (SimTime(42), 9.0), "log2(1) = 0 hops");
    }

    #[test]
    #[should_panic(expected = "contributed twice")]
    fn duplicate_contribution_panics() {
        let mut a = ModeledAllreduce::new(&cfg(), 2, ReduceOp::Min);
        a.contribute(0, 1.0, SimTime::ZERO);
        a.contribute(0, 1.0, SimTime::ZERO);
    }
}
