//! Shared atomic fault counters.
//!
//! Every layer that injects, detects, or recovers a fault increments the
//! same [`FaultStats`] instance (reached through the `Arc<FaultPlan>`).
//! Counters are plain relaxed atomics: they are bookkeeping, never control
//! flow, so ordering does not matter. [`FaultStats::snapshot`] freezes them
//! into a plain [`FaultCounts`] for reports and `results/FAULTS.json`.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$m:meta])* $name:ident),+ $(,)?) => {
        /// Live atomic fault counters (see module docs).
        #[derive(Debug, Default)]
        pub struct FaultStats {
            $($(#[$m])* pub $name: AtomicU64,)+
        }

        /// A frozen snapshot of [`FaultStats`] — plain `u64`s, cheap to
        /// copy, compare, and render to JSON.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct FaultCounts {
            $($(#[$m])* pub $name: u64,)+
        }

        impl FaultStats {
            /// Freeze the current counter values.
            pub fn snapshot(&self) -> FaultCounts {
                FaultCounts {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        impl FaultCounts {
            /// Counter names and values, in declaration order — what the
            /// artifact renderers iterate.
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }
    };
}

counters! {
    /// CPE slot deaths injected (kernel silently never completes).
    injected_slot_death,
    /// Straggler slowdowns injected.
    injected_straggler,
    /// DMA transfer errors injected.
    injected_dma_error,
    /// Message payloads dropped on the wire.
    injected_msg_drop,
    /// Message payloads duplicated on the wire.
    injected_msg_dup,
    /// Message payloads delayed on the wire.
    injected_msg_delay,
    /// Lost/straggling offloads detected by MPE deadline.
    detected_offload,
    /// Lost messages detected by ack timeout.
    detected_msg,
    /// Offload re-execution attempts.
    retries_offload,
    /// Message resend attempts.
    resends_msg,
    /// Offloads that ultimately completed after retry.
    recovered_offload,
    /// Messages that ultimately delivered after resend.
    recovered_msg,
    /// Faults that exhausted their retry budget (run degraded, not
    /// crashed).
    unrecovered,
    /// Duplicate deliveries suppressed at the receiver.
    duplicates_suppressed,
    /// CPE slots blacklisted after a death.
    slots_blacklisted,
    /// Offloads degraded to serial MPE execution.
    serial_degradations,
    /// Checkpoints written.
    checkpoints_written,
    /// Checkpoints restored.
    checkpoints_restored,
    // ---- campaign worker pool (sw-campaign; host workers, not CPE
    // slots — the same detect/retry/blacklist discipline one level up) ----
    /// Campaign worker crashes injected (the worker panics mid-job).
    injected_worker_death,
    /// Campaign worker straggles injected (the job runs slower).
    injected_worker_straggle,
    /// Worker crashes detected by the campaign coordinator.
    detected_worker,
    /// Campaign job re-dispatch attempts after a worker crash.
    retries_job,
    /// Campaign jobs that completed after at least one retry.
    recovered_job,
    /// Campaign workers blacklisted after repeated crashes.
    workers_blacklisted,
}

impl FaultStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        FaultStats::default()
    }

    /// Relaxed increment helper (`bump(&stats.retries_offload)` reads
    /// better than the raw atomic call at call sites).
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed add helper.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl FaultCounts {
    /// Total faults injected across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected_slot_death
            + self.injected_straggler
            + self.injected_dma_error
            + self.injected_msg_drop
            + self.injected_msg_dup
            + self.injected_msg_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_freezes_counts() {
        let s = FaultStats::new();
        FaultStats::bump(&s.injected_msg_drop);
        FaultStats::bump(&s.injected_msg_drop);
        FaultStats::add(&s.retries_offload, 3);
        let c = s.snapshot();
        assert_eq!(c.injected_msg_drop, 2);
        assert_eq!(c.retries_offload, 3);
        assert_eq!(c.unrecovered, 0);
        assert_eq!(c.total_injected(), 2);
        // Snapshot is decoupled from further bumps.
        FaultStats::bump(&s.injected_msg_drop);
        assert_eq!(c.injected_msg_drop, 2);
    }
}
