//! Scheduler operation modes and the paper's experimental variants.

use sw_athread::ExecPolicy;
use sw_math::ExpKind;
use sw_resilience::FaultConfig;

/// How the MPE task scheduler drives kernels (paper §V-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerMode {
    /// "MPE-only mode": the ready task executes on the MPE, no offloading.
    MpeOnly,
    /// "Synchronous MPE+CPE mode": offload, then spin on the completion
    /// flag — no overlap of computation with other tasks.
    SyncCpe,
    /// The contributed asynchronous mode: offload and return immediately,
    /// overlapping MPI, reductions, and task management with CPE compute.
    AsyncCpe,
}

/// One experimental variant: scheduler mode x kernel optimization level
/// (paper Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Variant {
    /// Scheduler mode.
    pub mode: SchedulerMode,
    /// Whether the SIMD-vectorized kernel is used (§VI-B).
    pub simd: bool,
    /// Which software exp library the kernel links (§VI-C; the paper's runs
    /// all use the fast one).
    pub exp: ExpKind,
}

impl Variant {
    /// `host.sync`: MPE-only, no tiling, no vectorization.
    pub const HOST_SYNC: Variant = Variant {
        mode: SchedulerMode::MpeOnly,
        simd: false,
        exp: ExpKind::Fast,
    };
    /// `acc.sync`: synchronous MPE+CPE, tiling, no vectorization.
    pub const ACC_SYNC: Variant = Variant {
        mode: SchedulerMode::SyncCpe,
        simd: false,
        exp: ExpKind::Fast,
    };
    /// `acc_simd.sync`: synchronous MPE+CPE, tiling, vectorized.
    pub const ACC_SIMD_SYNC: Variant = Variant {
        mode: SchedulerMode::SyncCpe,
        simd: true,
        exp: ExpKind::Fast,
    };
    /// `acc.async`: asynchronous MPE+CPE, tiling, no vectorization.
    pub const ACC_ASYNC: Variant = Variant {
        mode: SchedulerMode::AsyncCpe,
        simd: false,
        exp: ExpKind::Fast,
    };
    /// `acc_simd.async`: asynchronous MPE+CPE, tiling, vectorized — the
    /// fastest variant studied.
    pub const ACC_SIMD_ASYNC: Variant = Variant {
        mode: SchedulerMode::AsyncCpe,
        simd: true,
        exp: ExpKind::Fast,
    };

    /// The five variants of Table IV, in the paper's order.
    pub const TABLE_IV: [Variant; 5] = [
        Variant::HOST_SYNC,
        Variant::ACC_SYNC,
        Variant::ACC_SIMD_SYNC,
        Variant::ACC_ASYNC,
        Variant::ACC_SIMD_ASYNC,
    ];

    /// The paper's name for this variant.
    pub fn name(&self) -> &'static str {
        match (self.mode, self.simd) {
            (SchedulerMode::MpeOnly, false) => "host.sync",
            (SchedulerMode::MpeOnly, true) => "host_simd.sync",
            (SchedulerMode::SyncCpe, false) => "acc.sync",
            (SchedulerMode::SyncCpe, true) => "acc_simd.sync",
            (SchedulerMode::AsyncCpe, false) => "acc.async",
            (SchedulerMode::AsyncCpe, true) => "acc_simd.async",
        }
    }

    /// Inverse of [`Variant::name`] over all six names it produces (Table
    /// IV's five plus `host_simd.sync`). A name does not carry the exp
    /// library, so the result uses the fast one, as the paper's runs do.
    pub fn from_name(name: &str) -> Option<Variant> {
        [
            SchedulerMode::MpeOnly,
            SchedulerMode::SyncCpe,
            SchedulerMode::AsyncCpe,
        ]
        .into_iter()
        .flat_map(|mode| {
            [false, true].map(|simd| Variant {
                mode,
                simd,
                exp: ExpKind::Fast,
            })
        })
        .find(|v| v.name() == name)
    }

    /// Whether kernels are offloaded to the CPE cluster (tiling applies).
    pub fn offloads(&self) -> bool {
        self.mode != SchedulerMode::MpeOnly
    }
}

/// Optional runtime features beyond the paper's implementation (§IX future
/// work), evaluated by the ablation benches. The default is the paper's
/// configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerOptions {
    /// Split the 64 CPEs into this many groups and schedule different
    /// patches to different groups concurrently ("to enable both task and
    /// data parallelism on the CGs"). Requires the asynchronous scheduler.
    pub cpe_groups: usize,
    /// Double-buffer the memory-LDM transfers on the CPEs.
    pub double_buffer: bool,
    /// Pack each tile's fields into one DMA descriptor pair.
    pub packed_tiles: bool,
    /// How functional-mode kernels map the simulated CPE tile lists onto
    /// host threads. Purely a wall-clock knob: results and virtual times
    /// are identical across policies (the simulated 64-CPE concurrency is
    /// captured by the cost model either way).
    pub exec_policy: ExecPolicy,
    /// Run the static schedule verifier (`sw-analyze`) over the compiled
    /// task plans before the first step executes, panicking with the full
    /// report on any error-severity finding (race, deadlock, orphan recv,
    /// tile-plan violation). Off by default: the shipped plan builders are
    /// proved clean by tests, and the check is re-run by `repro analyze`.
    pub verify: bool,
    /// Record structured telemetry (spans/events through a
    /// `sw_telemetry::Recorder` threaded into the machine, MPI world,
    /// athread groups, and schedulers). Off by default: the disabled
    /// recorder's hot path is a single branch and zero allocation.
    pub telemetry: bool,
    /// Deterministic fault plane (`sw-resilience`). When `Some`, a seeded
    /// [`sw_resilience::FaultPlan`] is installed into the machine, the MPI
    /// world, and every rank's athread group; the schedulers then run their
    /// detection/retry/degradation machinery, and MPI quiescence at shutdown
    /// is promoted from a debug assertion to a hard error. `None` (the
    /// default) leaves every fault hook compiled out of the hot path behind
    /// a single `Option` test.
    pub faults: Option<FaultConfig>,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            cpe_groups: 1,
            double_buffer: false,
            packed_tiles: false,
            exec_policy: ExecPolicy::Serial,
            verify: false,
            telemetry: false,
            faults: None,
        }
    }
}

/// Whether kernels actually compute data or only advance the virtual clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Kernels really execute tile-by-tile through the LDM; results are
    /// validated against exact solutions. For tests, examples, and small
    /// problems.
    Functional,
    /// Kernels advance virtual time and flop counters analytically; no grid
    /// data is allocated. For the paper-scale evaluation sweeps (up to
    /// 1024^3 cells). Virtual times are identical to Functional by
    /// construction (asserted by tests).
    Model,
}

impl ExecMode {
    /// Both modes.
    pub const ALL: [ExecMode; 2] = [ExecMode::Functional, ExecMode::Model];

    /// The mode's name on the canonical line and in job specs.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Functional => "functional",
            ExecMode::Model => "model",
        }
    }

    /// Inverse of [`ExecMode::name`].
    pub fn from_name(name: &str) -> Option<ExecMode> {
        ExecMode::ALL.into_iter().find(|m| m.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for mode in [
            SchedulerMode::MpeOnly,
            SchedulerMode::SyncCpe,
            SchedulerMode::AsyncCpe,
        ] {
            for simd in [false, true] {
                let v = Variant {
                    mode,
                    simd,
                    exp: ExpKind::Fast,
                };
                assert_eq!(Variant::from_name(v.name()), Some(v));
            }
        }
        assert_eq!(Variant::from_name("acc.asynk"), None);
        for m in ExecMode::ALL {
            assert_eq!(ExecMode::from_name(m.name()), Some(m));
        }
        assert_eq!(ExecMode::from_name("Model"), None);
    }

    #[test]
    fn table_iv_names() {
        let names: Vec<_> = Variant::TABLE_IV.iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            vec![
                "host.sync",
                "acc.sync",
                "acc_simd.sync",
                "acc.async",
                "acc_simd.async"
            ]
        );
    }

    #[test]
    fn default_options_are_the_papers() {
        let o = SchedulerOptions::default();
        assert_eq!(o.cpe_groups, 1);
        assert!(!o.double_buffer && !o.packed_tiles);
        assert_eq!(o.exec_policy, ExecPolicy::Serial);
        assert!(!o.verify, "verification is opt-in");
        assert!(!o.telemetry, "telemetry is opt-in");
        assert!(o.faults.is_none(), "fault injection is opt-in");
    }

    #[test]
    fn offload_flag() {
        assert!(!Variant::HOST_SYNC.offloads());
        assert!(Variant::ACC_SYNC.offloads());
        assert!(Variant::ACC_SIMD_ASYNC.offloads());
    }
}
