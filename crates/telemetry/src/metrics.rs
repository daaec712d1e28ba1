//! Always-on cheap metrics: atomic counters and log2 histograms.
//!
//! The registry lives inside the recorder's shared `Inner`, so a disabled
//! recorder pays exactly one branch and touches no metric. All operations
//! are relaxed atomics: the registry is a statistics sink, not a
//! synchronization primitive.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::{arr, obj, Json, Layout};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket `b` counts values `v` with
/// `bit_length(v) == b`, i.e. bucket 0 holds `v == 0`, bucket 1 holds
/// `v == 1`, bucket 2 holds `2..=3`, … bucket 64 holds the top half of the
/// `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// A log2 histogram over `u64` samples (e.g. message bytes).
#[derive(Debug)]
pub struct Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Hist {
    /// Bucket index for a sample: its bit length (`0` for `0`).
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot of the raw bucket counts.
    pub fn snapshot(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Non-empty buckets as `(lower_bound_inclusive, count)` pairs.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.snapshot()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (if b == 0 { 0 } else { 1u64 << (b - 1) }, c))
            .collect()
    }

    /// Quantile estimate: the lower bound of the bucket where the
    /// cumulative count first reaches `q_permille` of the total (500 = p50,
    /// 990 = p99); 0 for an empty histogram.
    pub fn quantile(&self, q_permille: u64) -> u64 {
        let snap = self.snapshot();
        let target = (snap.iter().sum::<u64>() * q_permille).div_ceil(1000);
        let mut cum = 0u64;
        snap.iter()
            .position(|&c| {
                cum += c;
                cum >= target.max(1)
            })
            .map_or(0, |b| if b == 0 { 0 } else { 1u64 << (b - 1) })
    }
}

/// The metrics registry carried by an enabled recorder.
#[derive(Debug, Default)]
pub struct Metrics {
    /// CPE kernel offloads spawned.
    pub offloads: Counter,
    /// Calls into `MpiWorld::progress`.
    pub progress_calls: Counter,
    /// Point-to-point messages posted (`isend`s).
    pub messages_posted: Counter,
    /// Payload bytes per posted message, by log2 size class.
    pub msg_bytes: Hist,
    /// Functional offloads demoted from the parallel to the serial engine.
    pub serial_fallbacks: Counter,
    /// Per-rank reduction contributions.
    pub reduce_contributions: Counter,
}

impl Metrics {
    /// The registry as a block-layout JSON object.
    pub fn json(&self) -> Json {
        let hist = self
            .msg_bytes
            .nonzero()
            .into_iter()
            .map(|(lo, c)| obj(Layout::Row, [("ge", lo.into()), ("count", c.into())]));
        obj(
            Layout::Block,
            [
                ("offloads", self.offloads.get().into()),
                ("progress_calls", self.progress_calls.get().into()),
                ("messages_posted", self.messages_posted.get().into()),
                ("serial_fallbacks", self.serial_fallbacks.get().into()),
                (
                    "reduce_contributions",
                    self.reduce_contributions.get().into(),
                ),
                ("msg_bytes_log2", arr(Layout::Row, hist)),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn hist_buckets_are_log2() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(u64::MAX), 64);
        let h = Hist::default();
        for v in [0u64, 1, 2, 3, 4, 1024, 1025] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        let nz = h.nonzero();
        assert!(nz.contains(&(0, 1)));
        assert!(nz.contains(&(2, 2))); // 2 and 3
        assert!(nz.contains(&(1024, 2))); // 1024 and 1025
    }

    #[test]
    fn quantiles_from_log2_buckets() {
        let h = Hist::default();
        assert_eq!(h.quantile(500), 0);
        // 90 samples of ~1ms (bucket 11: 1024..2047), 10 of ~16ms
        // (bucket 15: 16384..32767).
        for _ in 0..90 {
            h.record(1500);
        }
        for _ in 0..10 {
            h.record(20_000);
        }
        assert_eq!(h.quantile(500), 1024);
        assert_eq!(h.quantile(900), 1024);
        assert_eq!(h.quantile(990), 16384);
    }

    #[test]
    fn metrics_json_carries_counters_and_histogram() {
        let m = Metrics::default();
        m.offloads.add(3);
        m.msg_bytes.record(4096);
        let j = m.json().render();
        assert!(j.contains("\"offloads\": 3"));
        assert!(j.contains("\"msg_bytes_log2\": [{\"ge\": 4096, \"count\": 1}]"));
        assert!(crate::json::is_valid(&j));
    }
}
