//! Resilience through the full application stack: fault injection must
//! never change the numerics (byte-identity against fault-free runs),
//! checkpoint/restart must reconverge bit-exactly, and hostile fault rates
//! must degrade gracefully instead of crashing or deadlocking.

use std::path::PathBuf;
use std::sync::Arc;

use apps::{heat_exact, HeatApp};
use sw_resilience::{Checkpoint, FaultConfig};
use uintah_core::grid::iv;
use uintah_core::{ExecMode, Level, RunConfig, RunReport, Simulation, Variant};

fn level() -> Level {
    Level::new(iv(8, 8, 8), iv(2, 2, 2))
}

fn run_heat(
    variant: Variant,
    steps: u32,
    n_ranks: usize,
    faults: Option<FaultConfig>,
) -> (Simulation, RunReport) {
    let level = level();
    let app = Arc::new(HeatApp::new(&level, 0.05));
    let mut cfg = RunConfig::paper(variant, ExecMode::Functional, n_ranks);
    cfg.steps = steps;
    cfg.options.faults = faults;
    let mut sim = Simulation::new(level, app, cfg);
    let report = sim.run();
    (sim, report)
}

fn tmpdir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn faulted_runs_match_fault_free_bit_exactly_across_variants() {
    // Recoverable faults (the standard preset) must be numerically
    // invisible in every Table IV variant: retries re-execute idempotent
    // kernels, resends re-deliver identical payloads, and duplicates are
    // suppressed — so the final field is the byte-for-byte fault-free one.
    let mut injected_total = 0;
    for variant in Variant::TABLE_IV {
        let (clean, clean_report) = run_heat(variant, 6, 4, None);
        let (faulted, report) = run_heat(variant, 6, 4, Some(FaultConfig::standard(42)));
        assert_eq!(
            clean.solution_bits(),
            faulted.solution_bits(),
            "variant {} diverged under recoverable faults",
            variant.name()
        );
        let counts = report.faults.expect("faulted run reports counters");
        assert_eq!(
            counts.unrecovered,
            0,
            "standard preset guarantees recovery ({})",
            variant.name()
        );
        assert!(
            report.leaked_handles.is_empty(),
            "faulted {} leaked MPI handles",
            variant.name()
        );
        assert!(clean_report.faults.is_none(), "clean run has no counters");
        injected_total += counts.total_injected();
    }
    assert!(
        injected_total > 0,
        "the sweep never injected a single fault — rates too low for this size"
    );
}

#[test]
fn offload_deaths_are_detected_retried_and_recovered() {
    // Crank CPE slot death high enough that the small run certainly hits
    // some: the MPE deadline detector must catch every one, the retry
    // machinery must re-execute, and the answer must stay bit-exact.
    let cfg = FaultConfig {
        slot_death_ppm: 250_000, // 25 % of attempts
        ..FaultConfig::standard(7)
    };
    let (clean, _) = run_heat(Variant::ACC_ASYNC, 6, 4, None);
    let (faulted, report) = run_heat(Variant::ACC_ASYNC, 6, 4, Some(cfg));
    assert_eq!(clean.solution_bits(), faulted.solution_bits());
    let c = report.faults.unwrap();
    assert!(c.injected_slot_death > 0, "no deaths at 25%: {c:?}");
    assert!(
        c.detected_offload >= c.injected_slot_death,
        "every dead offload must be deadline-detected: {c:?}"
    );
    assert!(c.retries_offload > 0, "deaths must trigger retries: {c:?}");
    assert!(c.recovered_offload > 0, "retries must recover: {c:?}");
    assert_eq!(c.unrecovered, 0);
}

#[test]
fn duplicate_messages_are_suppressed_exactly_once() {
    // Only duplicates, nothing else: delivery count must stay correct and
    // the data untouched.
    let cfg = FaultConfig {
        msg_dup_ppm: 300_000, // 30 %
        ..FaultConfig::none(3)
    };
    let (clean, _) = run_heat(Variant::ACC_SYNC, 5, 4, None);
    let (faulted, report) = run_heat(Variant::ACC_SYNC, 5, 4, Some(cfg));
    assert_eq!(clean.solution_bits(), faulted.solution_bits());
    let c = report.faults.unwrap();
    assert!(c.injected_msg_dup > 0, "no duplicates at 30%: {c:?}");
    assert_eq!(
        c.duplicates_suppressed, c.injected_msg_dup,
        "each duplicate suppressed exactly once: {c:?}"
    );
    assert_eq!(c.unrecovered, 0);
}

#[test]
fn checkpoint_restart_reconverges_bit_exactly() {
    let dir = tmpdir("ckpt-restart");
    std::fs::remove_dir_all(&dir).ok();

    // Faulted 8-step run checkpointing every 4 steps: serves as both the
    // uninterrupted baseline and the source of the mid-flight checkpoint.
    let level_a = level();
    let app_a = Arc::new(HeatApp::new(&level_a, 0.05));
    let mut cfg = RunConfig::paper(Variant::ACC_SIMD_ASYNC, ExecMode::Functional, 4);
    cfg.steps = 8;
    cfg.ckpt_every = Some(4);
    cfg.ckpt_dir = Some(dir.clone());
    cfg.options.faults = Some(FaultConfig::standard(13));
    let mut base = Simulation::new(level_a, app_a, cfg);
    let base_report = base.run();
    assert!(
        base_report.faults.unwrap().checkpoints_written >= 1,
        "no checkpoint written at the step-4 boundary"
    );

    let ckpt = Checkpoint::read_from(&dir.join("step00004.ckpt")).expect("read step-4 checkpoint");
    assert_eq!(ckpt.step, 4);
    assert_eq!(ckpt.n_ranks, 4);

    // Fresh simulation restored from the checkpoint runs steps 4..8 under
    // the *same* fault plan (keys use absolute step numbers, so the
    // remaining faults replay identically) and must land on the exact
    // same bits as the uninterrupted run.
    let level_b = level();
    let app_b = Arc::new(HeatApp::new(&level_b, 0.05));
    let mut cfg_b = RunConfig::paper(Variant::ACC_SIMD_ASYNC, ExecMode::Functional, 4);
    cfg_b.steps = 8;
    cfg_b.options.faults = Some(FaultConfig::standard(13));
    let mut restored = Simulation::new(level_b, app_b, cfg_b);
    restored.restore_from(ckpt);
    let restored_report = restored.run();

    assert_eq!(
        base.solution_bits(),
        restored.solution_bits(),
        "restart from step 4 diverged from the uninterrupted run"
    );
    assert_eq!(restored_report.faults.unwrap().checkpoints_restored, 1);

    // The checkpoint format itself is canonical: re-writing the parsed
    // checkpoint reproduces the file byte-for-byte.
    let path = dir.join("step00004.ckpt");
    let on_disk = std::fs::read(&path).unwrap();
    let reread = Checkpoint::read_from(&path).unwrap();
    assert_eq!(reread.to_bytes(), on_disk, "checkpoint not byte-stable");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ckpt_cadence_longer_than_the_run_is_a_clean_noop() {
    // Edge case: `ckpt_every` greater than the total step count. The
    // boundary is never reached, so no rank ever parks, no file is
    // written, and the numerics must be byte-identical to a run with
    // checkpointing disabled.
    let dir = tmpdir("ckpt-noop");
    std::fs::remove_dir_all(&dir).ok();
    let run = |ckpt_every: Option<u32>, ckpt_dir: Option<PathBuf>| {
        let level = level();
        let app = Arc::new(HeatApp::new(&level, 0.05));
        let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 4);
        cfg.steps = 6;
        cfg.ckpt_every = ckpt_every;
        cfg.ckpt_dir = ckpt_dir;
        cfg.options.faults = Some(FaultConfig::standard(5));
        let mut sim = Simulation::new(level, app, cfg);
        let report = sim.run();
        (sim, report)
    };
    let (plain, _) = run(None, None);
    let (noop, noop_report) = run(Some(100), Some(dir.clone()));
    assert_eq!(
        plain.solution_bits(),
        noop.solution_bits(),
        "an unreachable checkpoint cadence changed the numerics"
    );
    assert_eq!(
        noop_report.faults.unwrap().checkpoints_written,
        0,
        "ckpt_every > steps must write nothing"
    );
    let leftovers = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "no checkpoint files expected");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restore_at_the_final_step_is_a_byte_identical_noop_run() {
    // Edge case: restoring a checkpoint taken at step N into a run whose
    // total step count is N. Zero steps remain; the run must finish
    // immediately and the solution must be byte-identical to the
    // uninterrupted N-step run that produced the checkpoint.
    let dir = tmpdir("ckpt-final-step");
    std::fs::remove_dir_all(&dir).ok();
    let level_a = level();
    let app_a = Arc::new(HeatApp::new(&level_a, 0.05));
    let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 4);
    cfg.steps = 4;
    cfg.ckpt_every = Some(4);
    cfg.ckpt_dir = Some(dir.clone());
    let mut base = Simulation::new(level_a, app_a, cfg);
    base.run();
    // The boundary at step 4 coincides with the end of the run: the rank
    // is done, so no *parking* happens, but the controller still owes the
    // snapshot — the cadence promised a step-4 checkpoint.
    let ckpt = Checkpoint::read_from(&dir.join("step00004.ckpt"))
        .expect("a checkpoint at the final-step boundary");
    assert_eq!(ckpt.step, 4);

    let level_b = level();
    let app_b = Arc::new(HeatApp::new(&level_b, 0.05));
    let mut cfg_b = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 4);
    cfg_b.steps = 4;
    let mut restored = Simulation::new(level_b, app_b, cfg_b);
    restored.restore_from(ckpt);
    let report = restored.run();
    assert_eq!(report.steps, 4, "restored run reports the full step count");
    assert_eq!(
        base.solution_bits(),
        restored.solution_bits(),
        "restore at the final step diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restore_under_a_different_exec_policy_stays_byte_identical() {
    // Edge case: the restarted job runs with a different `--jobs` setting
    // (serial vs. a rayon-style worker pool). The tile schedule is policy
    // -invariant, so the restarted halves must agree bit-for-bit.
    let dir = tmpdir("ckpt-jobs");
    std::fs::remove_dir_all(&dir).ok();
    let level_a = level();
    let app_a = Arc::new(HeatApp::new(&level_a, 0.05));
    let mut cfg = RunConfig::paper(Variant::ACC_SIMD_ASYNC, ExecMode::Functional, 4);
    cfg.steps = 8;
    cfg.ckpt_every = Some(4);
    cfg.ckpt_dir = Some(dir.clone());
    cfg.options.exec_policy = uintah_core::ExecPolicy::Serial;
    let mut base = Simulation::new(level_a, app_a, cfg);
    base.run();
    let ckpt = Checkpoint::read_from(&dir.join("step00004.ckpt")).expect("step-4 checkpoint");

    let level_b = level();
    let app_b = Arc::new(HeatApp::new(&level_b, 0.05));
    let mut cfg_b = RunConfig::paper(Variant::ACC_SIMD_ASYNC, ExecMode::Functional, 4);
    cfg_b.steps = 8;
    cfg_b.options.exec_policy = uintah_core::ExecPolicy::Parallel { threads: 3 };
    let mut restored = Simulation::new(level_b, app_b, cfg_b);
    restored.restore_from(ckpt);
    restored.run();
    assert_eq!(
        base.solution_bits(),
        restored.solution_bits(),
        "restarting under a different worker-pool size changed the bits"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn harsh_faults_degrade_gracefully_and_stay_correct() {
    // `guarantee_recovery` off with a tiny retry budget: some faults must
    // exhaust it. The run still completes quiescently, degradations are
    // accounted, and — because degradation re-executes the same kernels
    // serially and forced delivery carries identical payloads — the
    // numerics remain a valid heat solution.
    let (sim, report) = run_heat(Variant::ACC_ASYNC, 6, 4, Some(FaultConfig::harsh(1)));
    assert_eq!(report.steps, 6);
    assert!(report.leaked_handles.is_empty(), "harsh run leaked handles");
    let c = report.faults.unwrap();
    assert!(c.total_injected() > 0, "harsh preset injected nothing");
    let alpha = HeatApp::new(&level(), 0.05).alpha;
    let lvl = sim.level();
    let t = sim.final_time();
    let mut linf = 0.0f64;
    for p in 0..lvl.n_patches() {
        let var = sim.solution(p);
        for cell in lvl.patch(p).region.iter() {
            let (x, y, z) = lvl.cell_center(cell);
            linf = linf.max((var.get(cell) - heat_exact(alpha, x, y, z, t)).abs());
        }
    }
    assert!(linf < 1e-3, "harsh run corrupted the solution: linf {linf}");
}

#[test]
fn model_mode_faulted_run_matches_functional_virtual_times() {
    // Fault decisions are pure functions of stable entity keys, never of
    // grid data — so a Model-mode faulted run must reproduce the exact
    // virtual timeline of the Functional one.
    let times = |exec: ExecMode| {
        let level = level();
        let app = Arc::new(HeatApp::new(&level, 0.05));
        let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, exec, 4);
        cfg.steps = 4;
        cfg.options.faults = Some(FaultConfig::standard(21));
        Simulation::new(level, app, cfg).run()
    };
    let f = times(ExecMode::Functional);
    let m = times(ExecMode::Model);
    assert_eq!(f.step_end, m.step_end, "fault timing depends on exec mode");
    assert_eq!(
        f.faults.unwrap().total_injected(),
        m.faults.unwrap().total_injected(),
        "fault injection depends on exec mode"
    );
}

#[test]
fn fault_plans_are_variant_independent() {
    // The same seed injects the same wire faults whether the scheduler is
    // sync or async — the property that makes Table IV sweeps comparable
    // under faults.
    // Duplicate decisions key on (src, dst, tag, attempt); with no drops
    // in flight the attempt streams coincide, so dup counts agree across
    // scheduler modes.
    let cfg = FaultConfig {
        msg_dup_ppm: 200_000,
        ..FaultConfig::none(99)
    };
    let run_dup = |variant: Variant| {
        let (_, report) = run_heat(variant, 5, 4, Some(cfg));
        report.faults.unwrap().injected_msg_dup
    };
    let sync = run_dup(Variant::ACC_SYNC);
    let async_ = run_dup(Variant::ACC_ASYNC);
    assert!(sync > 0, "no duplicates injected at 20%");
    assert_eq!(sync, async_, "wire faults must not depend on the scheduler");
}
