//! Fault-injection experiments: the `repro faults` subcommand.
//!
//! Three proofs, all against the paper's Burgers model problem, written to
//! `results/FAULTS.json`:
//!
//! 1. **Byte identity** — every Table IV variant run under the standard
//!    recoverable preset must produce the exact fault-free bits (retries
//!    re-execute idempotent kernels, resends carry identical payloads,
//!    duplicates are suppressed), with zero unrecovered faults.
//! 2. **Kill + restart** — a faulted run checkpointing every N steps is
//!    "killed" at the mid-flight checkpoint; a fresh process restores from
//!    the `.ckpt` file, replays the remaining steps under the same fault
//!    plan, and must land on the byte-identical final field.
//! 3. **Graceful degradation** — the harsh preset (recovery *not*
//!    guaranteed, tiny retry budget) must complete quiescently, with every
//!    exhausted budget accounted as a degradation instead of a crash.
//!
//! A Model-mode sweep at paper scale additionally measures the virtual-time
//! cost of the fault plane (retry/backoff/resend overhead) per variant.

use std::path::Path;

use sw_resilience::{Checkpoint, FaultConfig, FaultCounts, FaultPreset};
use sw_telemetry::json::{
    arr, fixed, lit, obj, Json,
    Layout::{Block, Row},
};
use uintah_core::grid::iv;
use uintah_core::{ExecMode, Level, RunConfig, RunReport, Simulation, Variant};

use crate::problems::SMALL;
use crate::runner::burgers;

/// The functional proof problem: small enough to run every variant twice
/// (clean + faulted) with real data in well under a second.
fn proof_level() -> Level {
    Level::new(iv(8, 8, 8), iv(2, 2, 2))
}

/// Construct and run `cfg` on the proof level.
fn proof_run(cfg: RunConfig) -> (Simulation, RunReport) {
    let mut sim = burgers(&proof_level(), cfg).expect("a valid fault-proof run");
    let report = sim.run();
    (sim, report)
}

/// One byte-identity cell: a Table IV variant under the standard preset.
#[derive(Clone, Debug)]
pub struct IdentityCell {
    /// Variant name (Table IV).
    pub variant: &'static str,
    /// Faulted bits == fault-free bits, cell for cell.
    pub bit_identical: bool,
    /// Fault counters of the faulted run.
    pub counts: FaultCounts,
}

/// Outcome of the kill + restart proof.
#[derive(Clone, Debug)]
pub struct RestartProof {
    /// Step the restored run resumed from.
    pub resumed_step: u32,
    /// Checkpoint file size in bytes.
    pub ckpt_bytes: u64,
    /// Restored final field == uninterrupted final field, bit for bit.
    pub restart_identical: bool,
    /// Counters of the restored run (includes `checkpoints_restored`).
    pub counts: FaultCounts,
}

/// Outcome of the harsh-preset degradation proof.
#[derive(Clone, Debug)]
pub struct HarshProof {
    /// The run completed all its steps without panicking or leaking.
    pub completed: bool,
    /// No MPI handle was left open at shutdown.
    pub quiescent: bool,
    /// Counters (degradations and unrecovered faults are expected).
    pub counts: FaultCounts,
}

/// One Model-mode overhead cell: virtual time-per-step with and without
/// the fault plane, at paper scale.
#[derive(Clone, Debug)]
pub struct OverheadCell {
    /// Variant name.
    pub variant: &'static str,
    /// Clean virtual time per step (s).
    pub clean_tps: f64,
    /// Faulted virtual time per step (s).
    pub faulted_tps: f64,
    /// Fault counters of the faulted run.
    pub counts: FaultCounts,
}

impl OverheadCell {
    /// Fractional virtual-time cost of faults + recovery.
    pub fn overhead_frac(&self) -> f64 {
        self.faulted_tps / self.clean_tps - 1.0
    }
}

/// Everything `repro faults` measures.
#[derive(Clone, Debug)]
pub struct FaultsOutcome {
    /// Master seed the fault plans were built from.
    pub seed: u64,
    /// Byte-identity proof per Table IV variant.
    pub identity: Vec<IdentityCell>,
    /// Kill + restart proof.
    pub restart: RestartProof,
    /// Harsh degradation proof.
    pub harsh: HarshProof,
    /// Model-mode virtual-time overhead (sync and async offload variants).
    pub overhead: Vec<OverheadCell>,
}

fn counts_json(c: &FaultCounts) -> Json {
    obj(Row, c.entries().into_iter().map(|(k, v)| (k, v.into())))
}

impl FaultsOutcome {
    /// Every failed proof, one line each: a Table IV variant missing,
    /// diverged or with unrecovered faults under the recoverable preset; a
    /// restart that was not mid-flight, not bit-exact, or restored other
    /// than exactly one checkpoint; a harsh run that crashed or leaked; an
    /// overhead cell with a non-positive time or a negative overhead; or a
    /// campaign that injected nothing. Empty = all proofs hold.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for variant in Variant::TABLE_IV {
            if !self.identity.iter().any(|c| c.variant == variant.name()) {
                v.push(format!(
                    "byte_identity: Table IV variant {} missing",
                    variant.name()
                ));
            }
        }
        for c in &self.identity {
            if !c.bit_identical {
                v.push(format!(
                    "byte_identity {}: faulted run diverged from the fault-free bits",
                    c.variant
                ));
            }
            if c.counts.unrecovered != 0 {
                v.push(format!(
                    "byte_identity {}: {} unrecovered fault(s) under the recoverable preset",
                    c.variant, c.counts.unrecovered
                ));
            }
        }
        let r = &self.restart;
        if !r.restart_identical {
            v.push("restart: restored run diverged from the uninterrupted run".to_string());
        }
        if r.resumed_step == 0 || r.ckpt_bytes == 0 {
            v.push(format!(
                "restart: resumed from step {} with a {}-byte checkpoint, not mid-flight",
                r.resumed_step, r.ckpt_bytes
            ));
        }
        if r.counts.checkpoints_restored != 1 {
            v.push(format!(
                "restart: restored {} checkpoints, expected exactly 1",
                r.counts.checkpoints_restored
            ));
        }
        if !self.harsh.completed {
            v.push("harsh: run did not complete all steps".to_string());
        }
        if !self.harsh.quiescent {
            v.push("harsh: run finished with leaked MPI handles".to_string());
        }
        for c in &self.overhead {
            if c.clean_tps <= 0.0 || c.faulted_tps <= 0.0 {
                v.push(format!(
                    "model_overhead {}: non-positive time per step",
                    c.variant
                ));
            } else if c.overhead_frac() < -1e-9 {
                v.push(format!(
                    "model_overhead {}: faults made the run faster ({:+.3}%)",
                    c.variant,
                    c.overhead_frac() * 100.0
                ));
            }
        }
        if self.total_injected() == 0 {
            v.push("campaign injected zero faults: the identity checks are vacuous".to_string());
        }
        v
    }

    /// Total faults injected across every proof run.
    pub fn total_injected(&self) -> u64 {
        self.identity
            .iter()
            .map(|c| c.counts.total_injected())
            .chain([self.restart.counts.total_injected()])
            .chain([self.harsh.counts.total_injected()])
            .chain(self.overhead.iter().map(|c| c.counts.total_injected()))
            .sum()
    }

    /// Render `FAULTS.json`.
    pub fn to_json(&self) -> String {
        let identity = self.identity.iter().map(|c| {
            obj(
                Row,
                [
                    ("variant", c.variant.into()),
                    ("bit_identical", c.bit_identical.into()),
                    ("counts", counts_json(&c.counts)),
                ],
            )
        });
        let overhead = self.overhead.iter().map(|c| {
            obj(
                Row,
                [
                    ("variant", c.variant.into()),
                    ("clean_tps", lit(format_args!("{:e}", c.clean_tps))),
                    ("faulted_tps", lit(format_args!("{:e}", c.faulted_tps))),
                    ("overhead_frac", fixed(c.overhead_frac(), 6)),
                    ("counts", counts_json(&c.counts)),
                ],
            )
        });
        let doc = obj(
            Block,
            [
                ("seed", self.seed.into()),
                ("byte_identity", arr(Block, identity)),
                (
                    "restart",
                    obj(
                        Row,
                        [
                            ("resumed_step", self.restart.resumed_step.into()),
                            ("ckpt_bytes", self.restart.ckpt_bytes.into()),
                            ("restart_identical", self.restart.restart_identical.into()),
                            ("counts", counts_json(&self.restart.counts)),
                        ],
                    ),
                ),
                (
                    FaultPreset::Harsh.name(),
                    obj(
                        Row,
                        [
                            ("completed", self.harsh.completed.into()),
                            ("quiescent", self.harsh.quiescent.into()),
                            ("counts", counts_json(&self.harsh.counts)),
                        ],
                    ),
                ),
                ("model_overhead", arr(Block, overhead)),
                ("failures", self.violations().len().into()),
                ("total_injected", self.total_injected().into()),
            ],
        );
        doc.render() + "\n"
    }
}

/// Run the full fault campaign with the given master seed.
pub fn run_faults(seed: u64, ckpt_dir: &Path) -> FaultsOutcome {
    const STEPS: u32 = 6;
    const RANKS: usize = 4;

    // Proof 1: byte identity across every Table IV variant.
    let identity: Vec<IdentityCell> = Variant::TABLE_IV
        .iter()
        .map(|&variant| {
            let clean_cfg = RunConfig {
                steps: STEPS,
                ..RunConfig::paper(variant, ExecMode::Functional, RANKS)
            };
            let mut faulted_cfg = clean_cfg.clone();
            faulted_cfg.options.faults = Some(FaultConfig::standard(seed));
            let (clean, _) = proof_run(clean_cfg);
            let (faulted, report) = proof_run(faulted_cfg);
            IdentityCell {
                variant: variant.name(),
                bit_identical: clean.solution_bits() == faulted.solution_bits(),
                counts: report.faults.expect("faulted run reports counters"),
            }
        })
        .collect();

    // Proof 2: kill at the mid-flight checkpoint, restart, reconverge.
    let restart = {
        const TOTAL: u32 = 8;
        const EVERY: u32 = 4;
        std::fs::remove_dir_all(ckpt_dir).ok();
        let mut cfg = RunConfig {
            steps: TOTAL,
            ..RunConfig::paper(Variant::ACC_SIMD_ASYNC, ExecMode::Functional, RANKS)
        };
        cfg.options.faults = Some(FaultConfig::standard(seed));
        let (base, _) = proof_run(RunConfig {
            ckpt_every: Some(EVERY),
            ckpt_dir: Some(ckpt_dir.to_path_buf()),
            ..cfg.clone()
        });
        let path = ckpt_dir.join(format!("step{EVERY:05}.ckpt"));
        let ckpt_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let ckpt = Checkpoint::read_from(&path).expect("read mid-flight checkpoint");
        let resumed_step = ckpt.step;
        // "Kill": the first process is gone; this fresh simulation is the
        // restarted one, beginning from the on-disk state alone.
        let mut restored = burgers(&proof_level(), cfg).expect("a valid restart run");
        restored.restore_from(ckpt);
        let report = restored.run();
        RestartProof {
            resumed_step,
            ckpt_bytes,
            restart_identical: base.solution_bits() == restored.solution_bits(),
            counts: report.faults.expect("restored run reports counters"),
        }
    };

    // Proof 3: harsh preset degrades, never crashes.
    let harsh = {
        let mut cfg = RunConfig {
            steps: STEPS,
            ..RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, RANKS)
        };
        cfg.options.faults = Some(FaultConfig::harsh(seed));
        let (_, report) = proof_run(cfg);
        HarshProof {
            completed: report.steps == STEPS,
            quiescent: report.leaked_handles.is_empty(),
            counts: report.faults.expect("harsh run reports counters"),
        }
    };

    // Model-mode virtual-time overhead at paper scale.
    let overhead = [
        Variant::ACC_SYNC,
        Variant::ACC_ASYNC,
        Variant::ACC_SIMD_ASYNC,
    ]
    .iter()
    .map(|&variant| {
        let run = |faults: Option<FaultConfig>| {
            let mut cfg = RunConfig::paper(variant, ExecMode::Model, RANKS);
            cfg.options.faults = faults;
            let mut sim = burgers(&SMALL.level(), cfg).expect("a valid overhead run");
            sim.run()
        };
        let clean = run(None);
        let faulted = run(Some(FaultConfig::standard(seed)));
        OverheadCell {
            variant: variant.name(),
            clean_tps: clean.time_per_step().as_secs_f64(),
            faulted_tps: faulted.time_per_step().as_secs_f64(),
            counts: faulted.faults.expect("faulted run reports counters"),
        }
    })
    .collect();

    FaultsOutcome {
        seed,
        identity,
        restart,
        harsh,
        overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_holds_all_proofs() {
        let dir = std::env::temp_dir().join(format!("sw-faults-test-{}", std::process::id()));
        let outcome = run_faults(42, &dir);
        assert_eq!(outcome.violations(), Vec::<String>::new());
        assert!(outcome.total_injected() > 0, "campaign injected nothing");
        assert_eq!(outcome.identity.len(), 5);
        assert_eq!(outcome.restart.resumed_step, 4);
        assert!(outcome.restart.restart_identical);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn violations_name_the_corrupted_proof() {
        let dir = std::env::temp_dir().join(format!("sw-faults-neg-{}", std::process::id()));
        let good = run_faults(7, &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(good.violations(), Vec::<String>::new());
        let j = good.to_json();
        assert!(j.contains("\"failures\": 0,"));
        assert_eq!(
            j.matches("\"variant\"").count(),
            Variant::TABLE_IV.len() + good.overhead.len()
        );

        let named = |corrupt: &dyn Fn(&mut FaultsOutcome), needle: &str| {
            let o =
                crate::cli::assert_names(good.clone(), corrupt, FaultsOutcome::violations, needle);
            assert!(!o.to_json().contains("\"failures\": 0,"));
        };
        named(
            &|o| o.identity[1].bit_identical = false,
            "byte_identity acc.sync: faulted run diverged",
        );
        named(
            &|o| o.identity[3].counts.unrecovered = 2,
            "byte_identity acc.async: 2 unrecovered",
        );
        named(
            &|o| o.identity.truncate(4),
            "Table IV variant acc_simd.async missing",
        );
        named(
            &|o| o.restart.restart_identical = false,
            "restart: restored run diverged",
        );
        named(&|o| o.restart.resumed_step = 0, "not mid-flight");
        named(&|o| o.restart.ckpt_bytes = 0, "not mid-flight");
        named(
            &|o| o.restart.counts.checkpoints_restored = 0,
            "restored 0 checkpoints",
        );
        named(
            &|o| o.harsh.completed = false,
            "harsh: run did not complete",
        );
        named(&|o| o.harsh.quiescent = false, "leaked MPI handles");
        named(
            &|o| o.overhead[0].faulted_tps = o.overhead[0].clean_tps * 0.5,
            "model_overhead acc.sync: faults made the run faster",
        );
        named(
            &|o| o.overhead[1].clean_tps = 0.0,
            "non-positive time per step",
        );
        named(
            &|o| {
                let zero = FaultCounts::default();
                o.identity.iter_mut().for_each(|c| c.counts = zero);
                o.restart.counts = FaultCounts {
                    checkpoints_restored: 1,
                    ..zero
                };
                o.harsh.counts = zero;
                o.overhead.iter_mut().for_each(|c| c.counts = zero);
            },
            "injected zero faults",
        );
    }

    #[test]
    fn different_seeds_change_the_fault_stream() {
        let dir = std::env::temp_dir().join(format!("sw-faults-seed-{}", std::process::id()));
        let a = run_faults(1, &dir);
        let b = run_faults(2, &dir);
        assert_eq!(a.violations(), Vec::<String>::new());
        assert_eq!(b.violations(), Vec::<String>::new());
        assert_ne!(
            a.identity
                .iter()
                .map(|c| c.counts)
                .collect::<Vec<FaultCounts>>(),
            b.identity
                .iter()
                .map(|c| c.counts)
                .collect::<Vec<FaultCounts>>(),
            "seeds 1 and 2 injected identical fault streams"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
