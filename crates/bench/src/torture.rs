//! `repro torture`: seeded differential config fuzzing across the whole
//! MPE/CPE/MPI stack.
//!
//! The campaign draws random-but-valid run configurations from a seeded
//! generator — degenerate grids (1-cell and prime patch axes), extreme
//! patch layouts, every Table IV variant, both functional exec policies,
//! all three fault presets, and checkpoint cadences including
//! `ckpt_every > steps` and a boundary landing exactly on the final step —
//! and runs each one through a battery of cross-checking oracles:
//!
//! * **constructs / completes / quiescent** — `Simulation::try_new`
//!   accepts the config and every variation of it the battery runs, the
//!   run finishes all its steps without panicking (the static verifier
//!   runs inline via `SchedulerOptions::verify`), and no MPI handle is
//!   leaked at shutdown;
//! * **telemetry_reconciles** — the phase pass rebuilt from the recorded
//!   spans equals `RunReport::step_end` exactly and every four-way split
//!   sums to its window;
//! * **model_agrees** — a Model-mode run of the same config lands on the
//!   identical virtual step-end times as the Functional run;
//! * **parallel_bit_identical** — re-running under
//!   `ExecPolicy::Parallel` produces bit-identical fields;
//! * **simd_sibling_bit_identical** — the SIMD sibling variant produces
//!   bit-identical fields (the kernels are proven bit-equal);
//! * **ckpt_noop / ckpt_restart** — a cadence longer than the run writes
//!   nothing; otherwise restoring the last on-disk checkpoint into a fresh
//!   process reconverges byte-identically;
//! * **regrid_bit_identical** — on cases with a regrid policy, a two-level
//!   adaptive run over the same root (regridding mid-run, every recompiled
//!   plan re-verified with zero findings) produces bit-identical fields,
//!   stats, and checkpoint bytes under serial and parallel execution.
//!
//! Bit-identity oracles are skipped when the fault plan does not guarantee
//! recovery (the `harsh` preset); completion and quiescence still hold.
//! Every seventh case is intentionally corrupted (zero steps, more ranks
//! than patches, groups on a sync scheduler, NaN noise, an LDM no tile
//! fits, an invalid machine model, ...) and must be **rejected with a typed
//! error, not a panic** — the rejection oracle.
//!
//! A case *is* its [`RunConfig`] (plus the level, an optional regrid policy
//! and the corruption's name) and is reported by its canonical line. On an
//! oracle failure the harness greedily shrinks the case toward a minimal
//! config that still fails the same oracle and emits a ready-to-paste
//! regression test, which parses that line back, into
//! `results/TORTURE.json` (and stdout). A fixed-seed corpus runs as a
//! `ci.sh` stage.
//!
//! Draws reuse the resilience subsystem's keying discipline
//! ([`sw_resilience::splitmix64`] over [`sw_resilience::fold`]ed words), so
//! a `(seed, case, field)` triple always yields the same value regardless
//! of evaluation order — cases can be re-generated individually by id.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use burgers::{BurgersAmr, BurgersApp};
use sw_amr::{AmrApplication, AmrConfig, AmrSimulation, RegridPolicy};
use sw_math::ExpKind;
use sw_resilience::{fold, splitmix64, Checkpoint, FaultPreset};
use sw_telemetry::analyze;
use sw_telemetry::json::{
    arr, obj,
    Layout::{Block, Row},
};
use uintah_core::grid::iv;
use uintah_core::{
    canonical_job, ConfigError, ExecMode, ExecPolicy, Level, LoadBalancer, MachineConfig,
    RunConfig, RunReport, SchedulerMode, SchedulerOptions, Simulation, Variant,
};

use crate::runner::bits;
use crate::trace::reconciles;

/// Domain discriminant for the torture generator's keyed draws (the
/// resilience plan uses 0x51-0x71; this namespace is disjoint).
const DOMAIN: u64 = 0x7081;

/// Field discriminants within a case.
mod field {
    pub const PATCH_X: u64 = 1;
    pub const PATCH_Y: u64 = 2;
    pub const PATCH_Z: u64 = 3;
    pub const LAYOUT_X: u64 = 4;
    pub const LAYOUT_Y: u64 = 5;
    pub const LAYOUT_Z: u64 = 6;
    pub const VARIANT: u64 = 7;
    pub const EXEC: u64 = 8;
    pub const THREADS: u64 = 9;
    pub const FAULTS: u64 = 10;
    pub const FAULT_SEED: u64 = 11;
    pub const STEPS: u64 = 12;
    pub const CKPT: u64 = 13;
    pub const CKPT_K: u64 = 14;
    pub const RANKS: u64 = 15;
    pub const GROUPS: u64 = 16;
    pub const LB: u64 = 17;
    pub const MACHINE: u64 = 18;
    pub const CORRUPT: u64 = 19;
    pub const PDES: u64 = 20;
    pub const PDES_THREADS: u64 = 21;
    // AMR fields draw from fresh discriminants so adding them never
    // perturbs the values the pre-AMR fields drew for a given (seed, id):
    // the historical corpus split (171 valid / 29 rejected at seed 0) is
    // preserved byte-for-byte.
    pub const AMR: u64 = 22;
    pub const AMR_REGRID: u64 = 23;
    pub const AMR_THRESHOLD: u64 = 24;
    pub const AMR_SEED: u64 = 25;
}

/// One keyed draw: same `(seed, case, field)` -> same value, always.
fn draw(seed: u64, case: u64, f: u64) -> u64 {
    splitmix64(fold(&[DOMAIN, seed, case, f]))
}

/// A fully-specified torture case: pure data, independently re-generable
/// from `(seed, id)`, directly constructible in a regression test. The run
/// itself is `cfg`, spelled by its canonical line; the case only adds the
/// level geometry, the adaptive-mesh policy and the corruption's name.
#[derive(Clone, Debug)]
pub struct TortureCase {
    /// Cells per patch per axis (1..=7: includes 1-cell and prime axes).
    pub patch: (i64, i64, i64),
    /// Patches per axis (1..=3).
    pub layout: (i64, i64, i64),
    /// The run, corruption included: exactly the config the battery (or
    /// the rejection oracle) sees.
    pub cfg: RunConfig,
    /// Also drive the case through the adaptive-mesh driver under this
    /// policy (`regrid_bit_identical` oracle): a two-level `AmrSimulation`
    /// over the same root level, regridding mid-run, must produce
    /// bit-identical fields and checkpoint bytes under serial and parallel
    /// execution.
    pub amr: Option<RegridPolicy>,
    /// `Some(kind)`: `cfg` is deliberately invalid and must be rejected
    /// with a typed error (see [`corruption_name`]).
    pub corrupt: Option<u8>,
}

/// Number of distinct corruption kinds the generator cycles through.
pub const N_CORRUPTIONS: u8 = 11;

/// Human name of a corruption kind (JSON + summaries).
pub fn corruption_name(kind: u8) -> &'static str {
    match kind % N_CORRUPTIONS {
        0 => "zero_steps",
        1 => "more_ranks_than_patches",
        2 => "zero_cpe_groups",
        3 => "groups_on_sync_scheduler",
        4 => "zero_ckpt_interval",
        5 => "nan_noise",
        6 => "ldm_fits_no_tile",
        7 => "machine_zero_cpes",
        8 => "machine_negative_rate",
        9 => "cg_speeds_wrong_length",
        _ => "zero_threads",
    }
}

/// The two-level policy the AMR battery runs: only the refinement
/// threshold, the regrid cadence and the dilation seed are drawn.
pub fn amr_policy(flag_threshold: f64, regrid_every: u32, seed: u64) -> RegridPolicy {
    RegridPolicy {
        max_levels: 2,
        ratio: 2,
        flag_threshold,
        regrid_every,
        regrid_frac: 0.25,
        seed,
    }
}

impl TortureCase {
    /// Generate case `id` of the campaign keyed by `seed`.
    pub fn generate(seed: u64, id: u64) -> TortureCase {
        let d = |f: u64| draw(seed, id, f);
        let tiny = d(field::MACHINE) % 8 == 0;
        let axis_cap = if tiny { 3 } else { 7 };
        let axis = |f: u64| 1 + (d(f) % axis_cap) as i64;
        let lay = |f: u64| 1 + (d(f) % 3) as i64;
        let layout = (
            lay(field::LAYOUT_X),
            lay(field::LAYOUT_Y),
            lay(field::LAYOUT_Z),
        );
        let patches = (layout.0 * layout.1 * layout.2) as u64;
        let variant = Variant::TABLE_IV[(d(field::VARIANT) % 5) as usize];
        let n_ranks = 1 + (d(field::RANKS) % 4.min(patches)) as usize;
        let mut cfg = RunConfig::paper(variant, ExecMode::Functional, n_ranks);
        let steps = 1 + (d(field::STEPS) % 4) as u32;
        cfg.steps = steps;
        cfg.lb = LoadBalancer::ALL[(d(field::LB) % 4) as usize];
        if tiny {
            // The 4-CPE / 8 KB-LDM test machine instead of the SW26010.
            cfg.machine = MachineConfig::test_tiny();
        }
        if variant.mode == SchedulerMode::AsyncCpe && d(field::GROUPS) % 4 == 0 {
            cfg.options.cpe_groups = 2;
        }
        if d(field::EXEC) % 3 != 0 {
            cfg.options.exec_policy = ExecPolicy::Parallel {
                threads: 2 + (d(field::THREADS) % 3) as usize,
            };
        }
        let faults = match d(field::FAULTS) % 4 {
            0 | 1 => FaultPreset::NoFaults,
            2 => FaultPreset::Standard,
            _ => FaultPreset::Harsh,
        };
        cfg.options.faults = faults.config(d(field::FAULT_SEED));
        cfg.ckpt_every = match d(field::CKPT) % 4 {
            0 => None,
            // A boundary strictly inside the run (when steps > 1).
            1 => Some(1 + (d(field::CKPT_K) % steps as u64) as u32),
            // A boundary landing exactly on the final step.
            2 => Some(steps),
            // A cadence the run never reaches.
            _ => Some(steps + 1 + (d(field::CKPT_K) % 97) as u32),
        };
        cfg.pdes = d(field::PDES) % 2 == 0;
        cfg.threads = match d(field::PDES_THREADS) % 3 {
            0 => None,
            k => Some(1 + k as usize),
        };
        // The threshold palette spans refine-everything (`0.0`) and
        // never-refine (infinity); a cadence of 1..=2 makes even 1-step
        // runs regrid.
        let amr = (d(field::AMR) % 4 == 0).then(|| {
            amr_policy(
                [0.0, 0.05, 0.5, f64::INFINITY][(d(field::AMR_THRESHOLD) % 4) as usize],
                1 + (d(field::AMR_REGRID) % 2) as u32,
                d(field::AMR_SEED),
            )
        });
        let case = TortureCase {
            patch: (
                axis(field::PATCH_X),
                axis(field::PATCH_Y),
                axis(field::PATCH_Z),
            ),
            layout,
            cfg,
            amr,
            corrupt: None,
        };
        if id % 7 == 3 {
            case.corrupted((d(field::CORRUPT) % N_CORRUPTIONS as u64) as u8)
        } else {
            case
        }
    }

    /// The case with corruption `kind` written into its config. Idempotent,
    /// so the shrinker re-applies it after every simplification.
    pub fn corrupted(mut self, kind: u8) -> TortureCase {
        let patches = self.patches();
        let cfg = &mut self.cfg;
        match kind % N_CORRUPTIONS {
            0 => cfg.steps = 0,
            1 => cfg.n_ranks = patches + 1,
            2 => cfg.options.cpe_groups = 0,
            3 => {
                cfg.variant = Variant::ACC_SYNC;
                cfg.options.cpe_groups = 2;
            }
            4 => cfg.ckpt_every = Some(0),
            5 => cfg.noise_frac = f64::NAN,
            6 => cfg.machine.ldm_bytes = 64,
            7 => cfg.machine.cpes_per_cg = 0,
            8 => cfg.machine.net_bw_gbs = -1.0,
            9 => cfg.cg_speeds = Some(Vec::new()),
            _ => {
                cfg.pdes = true;
                cfg.threads = Some(0);
            }
        }
        self.corrupt = Some(kind);
        self
    }

    /// Number of patches in the layout.
    pub fn patches(&self) -> usize {
        (self.layout.0 * self.layout.1 * self.layout.2) as usize
    }

    /// The root level the case runs on.
    pub fn level(&self) -> Level {
        Level::new(
            iv(self.patch.0, self.patch.1, self.patch.2),
            iv(self.layout.0, self.layout.1, self.layout.2),
        )
    }

    /// Is recovery from every injected fault guaranteed? Only then must the
    /// run stay bit-identical to its fault-free siblings (the harsh preset
    /// turns the guarantee off).
    fn recovers(&self) -> bool {
        self.cfg
            .options
            .faults
            .as_ref()
            .is_none_or(|f| f.guarantee_recovery)
    }

    /// The case's name: its canonical job line, then the AMR policy and the
    /// corruption, if any. Two cases with one summary are the same case
    /// (NaN noise included, which `==` on the config would deny).
    pub fn summary(&self) -> String {
        let mut s = canonical_job(&self.level(), "burgers", &self.cfg);
        if let Some(p) = &self.amr {
            let _ = write!(
                s,
                " amr=thr{}/every{}/seed{:#x}",
                p.flag_threshold, p.regrid_every, p.seed
            );
        }
        if let Some(kind) = self.corrupt {
            let _ = write!(s, " CORRUPT={}", corruption_name(kind));
        }
        s
    }

    /// A ready-to-paste regression test reproducing this case: the config
    /// is its canonical line, parsed back.
    pub fn regression_test(&self, seed: u64, id: u64, oracle: &str) -> String {
        let amr = self.amr.as_ref().map_or("None".to_string(), |p| {
            // `{:?}` on an infinite f64 prints `inf`, which is not Rust.
            let threshold = if p.flag_threshold.is_finite() {
                format!("{:?}", p.flag_threshold)
            } else {
                "f64::INFINITY".to_string()
            };
            format!(
                "Some(bench::torture::amr_policy({threshold}, {}, {:#x}))",
                p.regrid_every, p.seed
            )
        });
        format!(
            "#[test]\n\
             fn torture_seed{seed}_case{id}_regression() {{\n\
             \x20   // Minimized by `repro torture --seed {seed}`: oracle `{oracle}` failed.\n\
             \x20   let case = bench::torture::TortureCase {{\n\
             \x20       patch: {:?},\n\
             \x20       layout: {:?},\n\
             \x20       cfg: {:?}.parse::<uintah_core::RunConfig>().unwrap(),\n\
             \x20       amr: {amr},\n\
             \x20       corrupt: {:?},\n\
             \x20   }};\n\
             \x20   assert_eq!(bench::torture::check(&case), Ok(()));\n\
             }}\n",
            self.patch,
            self.layout,
            self.cfg.to_string(),
            self.corrupt,
        )
    }
}

/// Why an oracle rejected a case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleFailure {
    /// Which oracle failed (stable name, used as a JSON key).
    pub oracle: &'static str,
    /// What it saw.
    pub detail: String,
}

/// Per-case battery outcome: which oracles passed, and the first failure.
pub struct BatteryVerdict {
    /// Oracles that held, in execution order.
    pub passed: Vec<&'static str>,
    /// First failing oracle, if any (the battery stops there).
    pub failure: Option<OracleFailure>,
}

/// Unique suffix for per-battery scratch directories (shrinking re-runs
/// the battery many times on similar cases within one process).
static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// Run a closure, translating a panic into an `Err` with its message.
fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("{what} panicked: {msg}")
    })
}

/// Run the full oracle battery over one case.
///
/// For a corrupted case the battery is the rejection oracle alone:
/// `Simulation::try_new` must return a typed error without panicking.
pub fn run_battery(case: &TortureCase) -> BatteryVerdict {
    let mut passed = Vec::new();
    let fail = |oracle: &'static str, detail: String| BatteryVerdict {
        passed: Vec::new(),
        failure: Some(OracleFailure { oracle, detail }),
    };

    // --- Rejection oracle (corrupted cases end here). ---
    if let Some(kind) = case.corrupt {
        return match construct(case, case.cfg.clone()) {
            Err(msg) => fail("rejects_without_panicking", msg),
            Ok(Ok(_)) => fail(
                "rejects_without_panicking",
                format!(
                    "corruption `{}` was accepted as a valid config",
                    corruption_name(kind)
                ),
            ),
            Ok(Err(_)) => BatteryVerdict {
                passed: vec!["rejects_without_panicking"],
                failure: None,
            },
        };
    }

    let scratch = std::env::temp_dir().join(format!(
        "sw-torture-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&scratch).ok();
    let verdict = battery_valid(case, &scratch, &mut passed);
    std::fs::remove_dir_all(&scratch).ok();
    match verdict {
        Ok(()) => BatteryVerdict {
            passed,
            failure: None,
        },
        Err(f) => BatteryVerdict {
            passed,
            failure: Some(f),
        },
    }
}

/// `Simulation::try_new` of `cfg` on the case's level, a panic caught as
/// the outer `Err`.
fn construct(
    case: &TortureCase,
    cfg: RunConfig,
) -> Result<Result<Simulation, ConfigError>, String> {
    let level = case.level();
    let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
    guarded("try_new", || Simulation::try_new(level, app, cfg))
}

/// Construct and run the case's config with `edit` applied, restoring the
/// checkpoint at `restore` first if one is given. A rejection or a panic
/// while constructing fails `constructs`; a panic while running fails
/// `oracle`.
fn run_edited(
    case: &TortureCase,
    oracle: &'static str,
    restore: Option<&Path>,
    edit: impl FnOnce(&mut RunConfig),
) -> Result<(Simulation, RunReport), OracleFailure> {
    let fail = |oracle: &'static str, detail: String| OracleFailure { oracle, detail };
    let mut cfg = case.cfg.clone();
    edit(&mut cfg);
    let mut sim = match construct(case, cfg) {
        Err(msg) => return Err(fail("constructs", format!("{msg} in the {oracle} run"))),
        Ok(Err(e)) => {
            return Err(fail(
                "constructs",
                format!("valid config rejected in the {oracle} run: {e}"),
            ))
        }
        Ok(Ok(sim)) => sim,
    };
    guarded("run", move || {
        if let Some(path) = restore {
            let ckpt = Checkpoint::read_from(path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            sim.restore_from(ckpt);
        }
        let report = sim.run();
        (sim, report)
    })
    .map_err(|msg| fail(oracle, msg))
}

/// The valid-case battery body (scratch dir managed by the caller).
fn battery_valid(
    case: &TortureCase,
    scratch: &Path,
    passed: &mut Vec<&'static str>,
) -> Result<(), OracleFailure> {
    let fail = |oracle: &'static str, detail: String| OracleFailure { oracle, detail };
    let cfg = &case.cfg;

    // --- Reference run: functional, serial engine, verifier + telemetry
    // on. PDES stays off here — the reference IS the serial baseline the
    // pdes_bit_identical oracle compares against.
    let reference = run_edited(case, "completes", None, |c| {
        c.options.exec_policy = ExecPolicy::Serial;
        c.options.verify = true;
        c.options.telemetry = true;
        c.pdes = false;
        c.threads = None;
        c.ckpt_dir = Some(scratch.to_path_buf());
    });
    // A panic while running still counts the construction as passed.
    if !reference.as_ref().is_err_and(|f| f.oracle == "constructs") {
        passed.push("constructs");
    }
    let (reference, report) = reference?;
    if report.steps != cfg.steps {
        return Err(fail(
            "completes",
            format!("ran {} of {} steps", report.steps, cfg.steps),
        ));
    }
    passed.push("completes");

    if !report.leaked_handles.is_empty() {
        return Err(fail(
            "quiescent",
            format!(
                "{} MPI handles leaked: {:?}",
                report.leaked_handles.len(),
                report.leaked_handles
            ),
        ));
    }
    passed.push("quiescent");

    // --- Telemetry reconciliation (trace.rs discipline). ---
    let snap = reference.recorder().snapshot();
    let phases = analyze(&snap);
    if !reconciles(&phases, &report) {
        return Err(fail(
            "telemetry_reconciles",
            "phase pass does not reconcile with the RunReport".to_string(),
        ));
    }
    passed.push("telemetry_reconciles");

    let ref_bits = bits(&reference);

    // --- Model-mode agreement: identical virtual step-end times. ---
    let (_, model) = run_edited(case, "model_agrees", None, |c| c.exec = ExecMode::Model)?;
    if model.step_end != report.step_end || model.total_time != report.total_time {
        return Err(fail(
            "model_agrees",
            format!(
                "functional step_end {:?} != model step_end {:?}",
                report.step_end, model.step_end
            ),
        ));
    }
    passed.push("model_agrees");

    // --- Conservative-PDES engine: bit identity vs the serial engine. ---
    // Applies to EVERY valid case, harsh preset included: the fault plan
    // is keyed and deterministic, so the windowed engine must replay the
    // exact same event stream — the PDES determinism contract is
    // engine-level, not recovery-level. The case's own `threads` stays;
    // so does the checkpoint cadence: parking at boundaries is part of
    // the timeline being compared (ckpt_dir stays None, so nothing is
    // written and the ckpt oracles are untouched).
    let (pdes, prep) = run_edited(case, "pdes_bit_identical", None, |c| {
        c.options.exec_policy = ExecPolicy::Serial;
        c.options.telemetry = true;
        c.pdes = true;
    })?;
    if bits(&pdes) != ref_bits {
        return Err(fail(
            "pdes_bit_identical",
            "fields diverged under the windowed PDES engine".to_string(),
        ));
    }
    if prep.step_end != report.step_end
        || prep.total_time != report.total_time
        || prep.flops.total() != report.flops.total()
        || prep.messages != report.messages
        || prep.events != report.events
    {
        return Err(fail(
            "pdes_bit_identical",
            format!(
                "reports diverged: pdes step_end {:?} != serial step_end {:?}",
                prep.step_end, report.step_end
            ),
        ));
    }
    // The PDES run's telemetry must reconcile exactly like the serial
    // run's (same spans, same phase pass).
    let psnap = pdes.recorder().snapshot();
    let pphases = analyze(&psnap);
    if !reconciles(&pphases, &prep) {
        return Err(fail(
            "pdes_bit_identical",
            "PDES telemetry failed to reconcile against its own report".to_string(),
        ));
    }
    passed.push("pdes_bit_identical");

    // Without guaranteed recovery (the harsh preset) runs may legitimately
    // diverge bit-wise: the differential identity oracles only apply when
    // every fault is recovered.
    if case.recovers() {
        // --- Parallel functional engine: bit identity. ---
        let threads = match cfg.options.exec_policy {
            ExecPolicy::Serial => 2,
            ExecPolicy::Parallel { threads } => threads,
        };
        let (par, _) = run_edited(case, "parallel_bit_identical", None, |c| {
            c.options.exec_policy = ExecPolicy::Parallel { threads };
            c.ckpt_every = None;
        })?;
        if bits(&par) != ref_bits {
            return Err(fail(
                "parallel_bit_identical",
                format!("fields diverged under ExecPolicy::Parallel {{ threads: {threads} }}"),
            ));
        }
        passed.push("parallel_bit_identical");

        // --- SIMD sibling variant: bit identity. ---
        if cfg.variant.mode != SchedulerMode::MpeOnly {
            let sibling = Variant {
                simd: !cfg.variant.simd,
                ..cfg.variant
            };
            let (sib, _) = run_edited(case, "simd_sibling_bit_identical", None, |c| {
                c.variant = sibling;
                c.options.exec_policy = ExecPolicy::Serial;
                c.ckpt_every = None;
            })?;
            if bits(&sib) != ref_bits {
                return Err(fail(
                    "simd_sibling_bit_identical",
                    format!(
                        "{} and {} diverged bit-wise",
                        cfg.variant.name(),
                        sibling.name()
                    ),
                ));
            }
            passed.push("simd_sibling_bit_identical");
        }
    }

    // --- Checkpoint-cadence oracles (the reference run wrote them). ---
    if let Some(every) = cfg.ckpt_every {
        if every > cfg.steps {
            // The run never reaches a boundary: nothing may be on disk.
            let n = std::fs::read_dir(scratch).map(|d| d.count()).unwrap_or(0);
            if n != 0 {
                return Err(fail(
                    "ckpt_noop",
                    format!(
                        "cadence {every} > {} steps but {n} file(s) written",
                        cfg.steps
                    ),
                ));
            }
            passed.push("ckpt_noop");
        } else {
            let boundary = (cfg.steps / every) * every;
            let path = scratch.join(format!("step{boundary:05}.ckpt"));
            let (restored, rep) = run_edited(case, "ckpt_restart", Some(&path), |c| {
                c.options.exec_policy = ExecPolicy::Serial;
                c.ckpt_every = None;
            })?;
            if rep.steps != cfg.steps {
                return Err(fail(
                    "ckpt_restart",
                    format!("restored run reported {} of {} steps", rep.steps, cfg.steps),
                ));
            }
            if case.recovers() && bits(&restored) != ref_bits {
                return Err(fail(
                    "ckpt_restart",
                    format!("restore from step {boundary} diverged from the uninterrupted run"),
                ));
            }
            passed.push("ckpt_restart");
        }
    }

    // --- Adaptive-mesh driver: regrid bit identity. ---
    // The same case driven through a two-level `AmrSimulation` (regridding
    // mid-run, every recompiled plan re-verified) must produce bit-identical
    // fields, stats, and checkpoint bytes under the serial and parallel
    // execution policies. Faults stay off: this oracle proves the regrid
    // machinery, not recovery — and so it applies to harsh cases too.
    if let Some(policy) = &case.amr {
        let run = |exec_policy: ExecPolicy| {
            let app: Arc<dyn AmrApplication> = Arc::new(BurgersAmr::new(ExpKind::Fast));
            let amr_cfg = AmrConfig {
                machine: cfg.machine.clone(),
                options: SchedulerOptions {
                    exec_policy,
                    faults: None,
                    ..cfg.options
                },
                lb: cfg.lb,
                steps: cfg.steps,
                policy: policy.clone(),
                ..AmrConfig::basic(cfg.variant, cfg.n_ranks)
            };
            let mut amr = AmrSimulation::new(case.level(), app, amr_cfg);
            let stats = amr.run();
            (amr.solution_bits(), amr.checkpoint().to_bytes(), stats)
        };
        let pair = guarded("amr runs", || {
            (
                run(ExecPolicy::Serial),
                run(ExecPolicy::Parallel { threads: 2 }),
            )
        })
        .map_err(|msg| fail("regrid_bit_identical", msg))?;
        let ((ser_bits, ser_ckpt, ser_stats), (par_bits, par_ckpt, par_stats)) = pair;
        if ser_stats.verify_errors != 0 || ser_stats.lookahead_violations != 0 {
            return Err(fail(
                "regrid_bit_identical",
                format!(
                    "recompiled plans failed verification: {} error(s), {} lookahead finding(s)",
                    ser_stats.verify_errors, ser_stats.lookahead_violations
                ),
            ));
        }
        if ser_bits != par_bits || ser_stats != par_stats {
            return Err(fail(
                "regrid_bit_identical",
                format!(
                    "adaptive runs diverged across exec policies \
                     (serial {} regrid(s), parallel {} regrid(s))",
                    ser_stats.regrids, par_stats.regrids
                ),
            ));
        }
        if ser_ckpt != par_ckpt {
            return Err(fail(
                "regrid_bit_identical",
                "adaptive checkpoints diverged across exec policies".to_string(),
            ));
        }
        passed.push("regrid_bit_identical");
    }

    Ok(())
}

/// Convenience wrapper for regression tests: `Ok(())` or
/// `Err("oracle: detail")`.
pub fn check(case: &TortureCase) -> Result<(), String> {
    match run_battery(case).failure {
        None => Ok(()),
        Some(f) => Err(format!("{}: {}", f.oracle, f.detail)),
    }
}

/// Greedily shrink a failing case toward a minimal one that still fails
/// `fails`, with a bounded evaluation budget. Transformations are ordered
/// from coarse (drop whole features) to fine (shrink the grid).
pub fn shrink(case: &TortureCase, fails: &mut dyn FnMut(&TortureCase) -> bool) -> TortureCase {
    /// The ordered single-step simplifications, coarse to fine. Each is
    /// applied to fixpoint (halving an axis repeats until the axis is 1 or
    /// the battery stops failing) before moving to the next.
    const TRANSFORMS: &[fn(&mut TortureCase)] = &[
        |c| c.cfg.options.faults = None,
        |c| c.amr = None,
        |c| c.cfg.ckpt_every = None,
        |c| {
            c.cfg.pdes = false;
            c.cfg.threads = None;
        },
        |c| c.cfg.options.exec_policy = ExecPolicy::Serial,
        |c| c.cfg.options.cpe_groups = 1,
        |c| c.cfg.machine = MachineConfig::sw26010(),
        |c| c.cfg.lb = LoadBalancer::Block,
        |c| {
            c.cfg.steps = 1;
            c.cfg.ckpt_every = c.cfg.ckpt_every.map(|k| k.min(1));
        },
        |c| {
            if c.cfg.steps > 1 {
                c.cfg.steps -= 1;
                c.cfg.ckpt_every = c.cfg.ckpt_every.map(|k| k.min(c.cfg.steps));
            }
        },
        |c| c.cfg.n_ranks = 1,
        |c| c.layout.2 = 1,
        |c| c.layout.1 = 1,
        |c| c.layout.0 = 1,
        |c| c.patch.2 = 1.max(c.patch.2 / 2),
        |c| c.patch.1 = 1.max(c.patch.1 / 2),
        |c| c.patch.0 = 1.max(c.patch.0 / 2),
    ];
    let mut cur = case.clone();
    let mut budget = 60usize;
    loop {
        let mut improved = false;
        for t in TRANSFORMS {
            loop {
                let mut cand = cur.clone();
                t(&mut cand);
                // Keep ranks consistent with a shrunk layout, and the
                // corruption in place over whatever the step changed.
                cand.cfg.n_ranks = cand.cfg.n_ranks.min(cand.patches());
                if let Some(kind) = cand.corrupt {
                    cand = cand.corrupted(kind);
                }
                // By the line, not `==`: NaN noise is unequal to itself.
                if cand.summary() == cur.summary() {
                    break;
                }
                if budget == 0 {
                    return cur;
                }
                budget -= 1;
                if !fails(&cand) {
                    break;
                }
                cur = cand;
                improved = true;
            }
        }
        if !improved {
            return cur;
        }
    }
}

/// Shrink `case`, which failed `oracle` under `battery`, keeping a step only
/// if the same oracle still fails: a step that swapped it for another
/// would report one bug and reproduce a different one.
fn minimize(
    case: &TortureCase,
    oracle: &str,
    battery: &dyn Fn(&TortureCase) -> BatteryVerdict,
) -> TortureCase {
    shrink(case, &mut |c| {
        battery(c).failure.is_some_and(|f| f.oracle == oracle)
    })
}

/// One recorded oracle failure, with its minimized reproduction.
#[derive(Clone, Debug)]
pub struct TortureFailure {
    /// Case id within the campaign.
    pub case: u64,
    /// Summary of the original failing config.
    pub config: String,
    /// Failing oracle.
    pub oracle: &'static str,
    /// Failure detail.
    pub detail: String,
    /// Summary of the shrunk config (still failing the same oracle).
    pub minimized: String,
    /// Ready-to-paste regression test for the shrunk config.
    pub regression_test: String,
}

/// Outcome of a whole campaign.
#[derive(Debug, Default)]
pub struct TortureOutcome {
    /// Master seed.
    pub seed: u64,
    /// Cases sampled.
    pub cases: u64,
    /// Valid configs exercised through the full battery.
    pub valid: u64,
    /// Intentionally-corrupted configs exercised through the rejection
    /// oracle.
    pub rejected: u64,
    /// Pass counts per oracle (an oracle only counts where it applies).
    pub oracle_passes: BTreeMap<&'static str, u64>,
    /// Every oracle failure, minimized.
    pub failures: Vec<TortureFailure>,
}

/// Oracles that run on every valid config; each must pass exactly `valid`
/// times or a stratum silently skipped one. `pdes_bit_identical` is
/// always-on by design: the PDES engine must replay every valid config's
/// serial timeline exactly, harsh fault presets included.
const ALWAYS_ON: [&str; 6] = [
    "constructs",
    "completes",
    "quiescent",
    "telemetry_reconciles",
    "model_agrees",
    "pdes_bit_identical",
];

/// Oracles that only apply to some configs; a corpus of at least
/// [`COVERAGE_CASES`] must reach each of them.
const CONDITIONAL: [&str; 4] = [
    "parallel_bit_identical",
    "simd_sibling_bit_identical",
    "ckpt_noop",
    "ckpt_restart",
];

/// Smallest corpus the coverage clauses apply to (the ci.sh stage runs 200).
const COVERAGE_CASES: u64 = 100;

impl TortureOutcome {
    /// Every oracle failure, then every way a clean corpus was vacuous: the
    /// strata not partitioning it or drifting off the every-7th-case
    /// corruption cadence, an always-on oracle undercounting, the rejection
    /// oracle disagreeing with the rejected stratum, or (from
    /// [`COVERAGE_CASES`] up) an empty stratum or a conditional oracle that
    /// never ran. Empty = the campaign holds.
    pub fn violations(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .failures
            .iter()
            .map(|f| {
                format!(
                    "case {} [{}]: oracle {}: {}",
                    f.case, f.config, f.oracle, f.detail
                )
            })
            .collect();
        if self.valid + self.rejected != self.cases {
            v.push(format!(
                "strata do not partition the corpus: {} valid + {} rejected != {} cases",
                self.valid, self.rejected, self.cases
            ));
        }
        if self.rejected.abs_diff(self.cases / 7) > 2 {
            v.push(format!(
                "rejected stratum {} is off the every-7th-case cadence for {} cases",
                self.rejected, self.cases
            ));
        }
        if !self.failures.is_empty() {
            // A failing case short-circuits its later oracles; the counts
            // below are only exact on a clean corpus.
            return v;
        }
        let passes = |oracle: &str| self.oracle_passes.get(oracle).copied().unwrap_or(0);
        for oracle in ALWAYS_ON {
            if passes(oracle) != self.valid {
                v.push(format!(
                    "oracle {oracle} passed {} times, expected exactly {} (once per valid config)",
                    passes(oracle),
                    self.valid
                ));
            }
        }
        if passes("rejects_without_panicking") != self.rejected {
            v.push(format!(
                "oracle rejects_without_panicking passed {} times, rejected stratum is {}",
                passes("rejects_without_panicking"),
                self.rejected
            ));
        }
        if self.cases >= COVERAGE_CASES {
            if self.valid == 0 || self.rejected == 0 {
                v.push(format!(
                    "degenerate corpus: {} valid, {} rejected",
                    self.valid, self.rejected
                ));
            }
            for oracle in CONDITIONAL {
                if passes(oracle) == 0 {
                    v.push(format!(
                        "oracle {oracle} never ran: the corpus missed a corner of the grammar"
                    ));
                }
            }
        }
        v
    }

    /// Render `TORTURE.json`.
    pub fn to_json(&self) -> String {
        let passes = self.oracle_passes.iter().map(|(k, v)| (*k, (*v).into()));
        let failures = self.failures.iter().map(|f| {
            obj(
                Row,
                [
                    ("case", f.case.into()),
                    ("config", f.config.as_str().into()),
                    ("oracle", f.oracle.into()),
                    ("detail", f.detail.as_str().into()),
                    ("minimized", f.minimized.as_str().into()),
                    ("regression_test", f.regression_test.as_str().into()),
                ],
            )
        });
        let doc = obj(
            Block,
            [
                ("seed", self.seed.into()),
                ("cases", self.cases.into()),
                ("valid", self.valid.into()),
                ("rejected", self.rejected.into()),
                ("oracle_passes", obj(Row, passes)),
                ("failures", arr(Block, failures)),
                ("ok", self.violations().is_empty().into()),
            ],
        );
        doc.render() + "\n"
    }
}

/// Run the campaign: `cases` configs drawn from `seed`, full battery each,
/// shrinking + regression-test emission on failure.
///
/// The default panic hook is silenced for the duration (oracles translate
/// panics into failures; a 200-case campaign would otherwise spray
/// backtraces for every intentionally-corrupted config that trips an
/// internal assert while being probed).
pub fn run_torture(seed: u64, cases: u64) -> TortureOutcome {
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut outcome = TortureOutcome {
        seed,
        cases,
        ..TortureOutcome::default()
    };
    for id in 0..cases {
        let case = TortureCase::generate(seed, id);
        if case.corrupt.is_some() {
            outcome.rejected += 1;
        } else {
            outcome.valid += 1;
        }
        let verdict = run_battery(&case);
        for o in &verdict.passed {
            *outcome.oracle_passes.entry(o).or_insert(0) += 1;
        }
        if let Some(failure) = verdict.failure {
            let min = minimize(&case, failure.oracle, &run_battery);
            outcome.failures.push(TortureFailure {
                case: id,
                config: case.summary(),
                oracle: failure.oracle,
                detail: failure.detail,
                minimized: min.summary(),
                regression_test: min.regression_test(seed, id, failure.oracle),
            });
        }
    }
    panic::set_hook(prev_hook);
    outcome
}

/// Run the campaign and write `TORTURE.json` under `dir`.
pub fn write_torture_json(dir: &Path, seed: u64, cases: u64) -> io::Result<TortureOutcome> {
    std::fs::create_dir_all(dir)?;
    let outcome = run_torture(seed, cases);
    std::fs::write(dir.join("TORTURE.json"), outcome.to_json())?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_covers_the_grammar() {
        let corpus = |seed: u64| -> Vec<TortureCase> {
            (0..64).map(|i| TortureCase::generate(seed, i)).collect()
        };
        let lines = |cases: &[TortureCase]| -> Vec<String> {
            cases.iter().map(TortureCase::summary).collect()
        };
        // Compared by line: a NaN-noise case is unequal to itself by `==`.
        let a = corpus(9);
        assert_eq!(
            lines(&a),
            lines(&corpus(9)),
            "same seed must regenerate identical cases"
        );
        assert_ne!(
            lines(&a),
            lines(&corpus(10)),
            "different seeds must change the corpus"
        );
        // Grammar coverage in a modest corpus.
        let faults = |x: &TortureCase| x.cfg.options.faults.is_some();
        let (steps, ckpt) = (
            |x: &TortureCase| x.cfg.steps,
            |x: &TortureCase| x.cfg.ckpt_every,
        );
        assert!(a.iter().any(|x| x.corrupt.is_some()));
        assert!(a.iter().any(|x| !x.recovers()));
        assert!(a.iter().any(|x| faults(x) && x.recovers()));
        assert!(a.iter().any(|x| ckpt(x).is_some_and(|k| k > steps(x))));
        assert!(a.iter().any(|x| ckpt(x).is_some_and(|k| k == steps(x))));
        assert!(a
            .iter()
            .any(|x| x.cfg.options.exec_policy != ExecPolicy::Serial));
        assert!(a
            .iter()
            .any(|x| x.cfg.machine == MachineConfig::test_tiny()));
        assert!(a.iter().any(|x| x.cfg.options.cpe_groups == 2));
        assert!(a.iter().any(|x| x.cfg.pdes) && a.iter().any(|x| !x.cfg.pdes));
        assert!(a.iter().any(|x| x.cfg.threads.is_none()));
        assert!(a.iter().any(|x| x.cfg.threads.is_some()));
        assert!(a.iter().any(|x| x.amr.is_some()) && a.iter().any(|x| x.amr.is_none()));
        let threshold = |x: &TortureCase| x.amr.as_ref().map(|p| p.flag_threshold);
        assert!(
            a.iter().any(|x| threshold(x) == Some(0.0))
                && a.iter().any(|x| threshold(x) == Some(f64::INFINITY)),
            "threshold palette must span refine-everything and never-refine"
        );
        assert!(a
            .iter()
            .any(|x| x.patch.0 == 1 || x.patch.1 == 1 || x.patch.2 == 1));
        let variants: std::collections::BTreeSet<&str> =
            a.iter().map(|x| x.cfg.variant.name()).collect();
        assert_eq!(
            variants.len(),
            5,
            "all Table IV variants drawn: {variants:?}"
        );
    }

    #[test]
    fn a_small_campaign_passes_every_oracle() {
        let outcome = run_torture(0, 21);
        // Clean, partitioned, on cadence, every always-on oracle counted
        // once per valid config, rejection oracle == rejected stratum.
        assert_eq!(outcome.violations(), Vec::<String>::new());
        assert!(outcome.rejected >= 1 && outcome.valid >= 1);
        // The AMR draw flags ~a quarter of the corpus; even this small
        // campaign must exercise the regrid oracle at least once.
        assert!(
            outcome.oracle_passes.get("regrid_bit_identical").copied() >= Some(1),
            "{:?}",
            outcome.oracle_passes
        );
    }

    /// A case with every feature on, for the shrinker to strip.
    fn loaded_case() -> TortureCase {
        let mut cfg = RunConfig::paper(Variant::ACC_SIMD_ASYNC, ExecMode::Functional, 4);
        cfg.steps = 4;
        cfg.lb = LoadBalancer::Hilbert;
        cfg.options.cpe_groups = 2;
        cfg.options.exec_policy = ExecPolicy::Parallel { threads: 4 };
        cfg.options.faults = FaultPreset::Standard.config(1);
        cfg.ckpt_every = Some(2);
        cfg.pdes = true;
        cfg.threads = Some(2);
        TortureCase {
            patch: (7, 5, 3),
            layout: (3, 2, 1),
            cfg,
            amr: Some(amr_policy(0.05, 1, 2)),
            corrupt: None,
        }
    }

    #[test]
    fn shrinking_finds_a_minimal_case_for_a_synthetic_predicate() {
        // A synthetic "bug" that needs >= 2 steps and a fault plane: the
        // shrinker must strip everything else and keep exactly those.
        let mut evals = 0;
        let min = shrink(&loaded_case(), &mut |c| {
            evals += 1;
            c.cfg.steps >= 2 && c.cfg.options.faults.is_some()
        });
        assert!(evals <= 60, "shrink budget exceeded: {evals}");
        assert_eq!(min.cfg.steps, 2);
        assert!(min.cfg.options.faults.is_some());
        assert!(min.amr.is_none());
        assert_eq!(min.cfg.ckpt_every, None);
        assert_eq!(min.cfg.options.exec_policy, ExecPolicy::Serial);
        assert_eq!(min.cfg.options.cpe_groups, 1);
        assert_eq!(min.cfg.n_ranks, 1);
        assert_eq!((min.patch, min.layout), ((1, 1, 1), (1, 1, 1)));
        // The emitted regression test is paste-ready Rust whose config is
        // the case's canonical line.
        let t = min.regression_test(0, 0, "synthetic");
        assert!(t.contains("bench::torture::TortureCase {"));
        assert!(t.contains("assert_eq!(bench::torture::check(&case), Ok(()));"));
        let line = format!("{:?}", min.cfg.to_string());
        assert!(t.contains(&format!(
            "cfg: {line}.parse::<uintah_core::RunConfig>().unwrap(),"
        )));
        assert!(t.contains("amr: None,"));
        let t = loaded_case().regression_test(0, 0, "synthetic");
        assert!(t.contains("amr: Some(bench::torture::amr_policy(0.05, 1, 0x2)),"));
        let never = TortureCase {
            amr: Some(amr_policy(f64::INFINITY, 2, 0)),
            ..min
        };
        assert!(never
            .regression_test(0, 0, "synthetic")
            .contains("amr_policy(f64::INFINITY, 2, 0x0)"));
    }

    #[test]
    fn shrinking_keeps_the_reported_oracle() {
        // A synthetic battery with two bugs: `model_agrees` fails from 3
        // steps up, `completes` below. Shrinking a `model_agrees` failure
        // must stop at 3 steps rather than slide into the other bug.
        let battery = |c: &TortureCase| BatteryVerdict {
            passed: Vec::new(),
            failure: Some(OracleFailure {
                oracle: if c.cfg.steps >= 3 {
                    "model_agrees"
                } else {
                    "completes"
                },
                detail: String::new(),
            }),
        };
        let min = minimize(&loaded_case(), "model_agrees", &battery);
        assert_eq!(min.cfg.steps, 3);
        assert_eq!((min.patch, min.layout), ((1, 1, 1), (1, 1, 1)));
    }

    #[test]
    fn corrupted_cases_are_rejected_not_crashed() {
        for kind in 0..N_CORRUPTIONS {
            let case = TortureCase::generate(3, 0).corrupted(kind);
            let v = run_battery(&case);
            assert!(
                v.failure.is_none(),
                "corruption `{}`: {:?}",
                corruption_name(kind),
                v.failure
            );
            assert_eq!(v.passed, vec!["rejects_without_panicking"]);
            // The shrinker re-applies the corruption after every step.
            let again = case.clone().corrupted(kind);
            assert_eq!(again.summary(), case.summary(), "not idempotent");
        }
    }

    fn synthetic_failure() -> TortureFailure {
        TortureFailure {
            case: 99,
            config: "patch=1x1x1".into(),
            oracle: "model_agrees",
            detail: "line1\n\"quoted\"\\backslash".into(),
            minimized: "patch=1x1x1".into(),
            regression_test: "#[test]\nfn t() {}\n".into(),
        }
    }

    #[test]
    fn violations_name_the_failing_case_and_the_vacuous_corpus() {
        // The committed seed-0 corpus (results/TORTURE.json), in memory.
        let passing = || TortureOutcome {
            seed: 0,
            cases: 200,
            valid: 171,
            rejected: 29,
            oracle_passes: ALWAYS_ON
                .iter()
                .map(|o| (*o, 171))
                .chain(CONDITIONAL.iter().map(|o| (*o, 40)))
                .chain([("rejects_without_panicking", 29)])
                .collect(),
            failures: Vec::new(),
        };
        assert_eq!(passing().violations(), Vec::<String>::new());
        assert!(passing()
            .to_json()
            .contains("\"failures\": [\n  ],\n  \"ok\": true"));

        let named = |corrupt: &dyn Fn(&mut TortureOutcome), needle: &str| {
            let o =
                crate::cli::assert_names(passing(), corrupt, TortureOutcome::violations, needle);
            assert!(o.to_json().contains("\"ok\": false"));
        };
        named(
            &|o| o.failures.push(synthetic_failure()),
            "case 99 [patch=1x1x1]: oracle model_agrees",
        );
        named(&|o| o.valid = 170, "do not partition");
        named(
            &|o| {
                o.rejected = 0;
                o.valid = 200;
            },
            "degenerate corpus: 200 valid, 0 rejected",
        );
        named(
            &|o| {
                o.rejected = 40;
                o.valid = 160;
            },
            "cadence",
        );
        named(
            &|o| *o.oracle_passes.get_mut("quiescent").unwrap() = 170,
            "oracle quiescent passed 170 times",
        );
        named(
            &|o| {
                *o.oracle_passes
                    .get_mut("rejects_without_panicking")
                    .unwrap() = 28
            },
            "rejects_without_panicking passed 28",
        );
        named(
            &|o| *o.oracle_passes.get_mut("ckpt_restart").unwrap() = 0,
            "oracle ckpt_restart never ran",
        );
    }

    #[test]
    fn failure_entries_escape_their_free_text() {
        let outcome = TortureOutcome {
            failures: vec![synthetic_failure()],
            ..TortureOutcome::default()
        };
        let j = outcome.to_json();
        assert!(
            j.contains("\"detail\": \"line1\\n\\\"quoted\\\"\\\\backslash\""),
            "{j}"
        );
        assert!(
            j.contains("\"regression_test\": \"#[test]\\nfn t() {}\\n\""),
            "{j}"
        );
    }
}
