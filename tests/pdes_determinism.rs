//! The conservative-PDES engine is invisible to the simulation: advancing
//! the simulated ranks concurrently inside lookahead windows produces
//! bit-identical results to the serial event engine — fields, reports,
//! telemetry, and fault streams (DESIGN.md §14).
//!
//! This is the whole-stack counterpart of the torture campaign's
//! `pdes_bit_identical` oracle: here the matrix is explicit — all five
//! Table IV variants × three fault presets × telemetry on/off — plus the
//! lookahead-safety property: a lookahead wider than the minimum modeled
//! cross-rank latency could deliver a message into an already-drained
//! window, so such configs must be *rejected*, never silently reordered.

use std::sync::Arc;

use burgers::BurgersApp;
use proptest::prelude::*;
use sw_math::ExpKind;
use sw_resilience::FaultConfig;
use sw_telemetry::analyze;
use uintah_core::grid::iv;
use uintah_core::{ExecMode, Level, RunConfig, RunReport, Simulation, Variant};

fn small_level() -> Level {
    Level::new(iv(6, 6, 6), iv(2, 2, 2))
}

/// Fault presets of the determinism matrix.
fn presets() -> [(&'static str, Option<FaultConfig>); 3] {
    [
        ("none", None),
        ("standard", Some(FaultConfig::standard(0x5eed))),
        ("harsh", Some(FaultConfig::harsh(0x5eed))),
    ]
}

fn build_cfg(
    variant: Variant,
    faults: Option<FaultConfig>,
    telemetry: bool,
    pdes: bool,
) -> RunConfig {
    let mut cfg = RunConfig::paper(variant, ExecMode::Functional, 4);
    cfg.steps = 3;
    cfg.options.faults = faults;
    cfg.options.telemetry = telemetry;
    cfg.pdes = pdes;
    if pdes {
        // Ask for 2 workers even on a 1-core host: the engine clamps to
        // what the host offers, and the window protocol runs either way.
        cfg.threads = Some(2);
    }
    cfg
}

fn run(cfg: RunConfig) -> (Simulation, RunReport) {
    let level = small_level();
    let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
    let mut sim = Simulation::new(level, app, cfg);
    let report = sim.run();
    (sim, report)
}

#[test]
fn pdes_is_bit_identical_across_variants_faults_and_telemetry() {
    for variant in Variant::TABLE_IV {
        for (fname, faults) in presets() {
            for telemetry in [false, true] {
                let what = format!("{} faults={fname} telemetry={telemetry}", variant.name());
                let (ss, rs) = run(build_cfg(variant, faults, telemetry, false));
                let (sp, rp) = run(build_cfg(variant, faults, telemetry, true));
                assert_eq!(
                    ss.solution_bits(),
                    sp.solution_bits(),
                    "{what}: fields diverged"
                );
                // The full report — virtual times, flop counters, message
                // and event counts, fault-plane counters — is identical,
                // not merely close.
                assert_eq!(
                    format!("{rs:?}"),
                    format!("{rp:?}"),
                    "{what}: reports diverged"
                );
                if telemetry {
                    // Identical spans on both engines: the phase pass
                    // reconstructs the same per-step timeline.
                    let ps = analyze(&ss.recorder().snapshot());
                    let pp = analyze(&sp.recorder().snapshot());
                    assert_eq!(
                        ps.step_end_ps, pp.step_end_ps,
                        "{what}: telemetry timelines diverged"
                    );
                    assert_eq!(
                        ps.breakdowns.len(),
                        pp.breakdowns.len(),
                        "{what}: phase breakdown counts diverged"
                    );
                }
                // Fault streams: both engines drew the same injections and
                // recovered the same way.
                match (ss.fault_plan(), sp.fault_plan()) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert_eq!(
                        format!("{:?}", a.stats.snapshot()),
                        format!("{:?}", b.stats.snapshot()),
                        "{what}: fault streams diverged"
                    ),
                    _ => panic!("{what}: fault plan presence diverged"),
                }
            }
        }
    }
}

#[test]
fn auto_thread_detection_matches_explicit() {
    let (sa, ra) = run({
        let mut c = build_cfg(Variant::ACC_SIMD_ASYNC, None, false, true);
        c.threads = None; // auto-detect host parallelism
        c
    });
    let (se, re) = run(build_cfg(Variant::ACC_SIMD_ASYNC, None, false, true));
    assert_eq!(sa.solution_bits(), se.solution_bits());
    assert_eq!(format!("{ra:?}"), format!("{re:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any lookahead in the safe interval (0, net_latency] yields a run
    /// bit-identical to the serial engine.
    #[test]
    fn safe_lookaheads_are_bit_identical(divisor in 1u64..=8) {
        let base = build_cfg(Variant::ACC_ASYNC, None, false, false);
        let max = base.machine.net_latency.0;
        let (ss, rs) = run(base.clone());
        let mut cfg = build_cfg(Variant::ACC_ASYNC, None, false, true);
        cfg.pdes_lookahead_ps = Some((max / divisor).max(1));
        let (sp, rp) = run(cfg);
        prop_assert_eq!(ss.solution_bits(), sp.solution_bits(), "narrowed lookahead reordered events");
        prop_assert_eq!(format!("{rs:?}"), format!("{rp:?}"));
    }

    /// A lookahead wider than the minimum modeled cross-rank latency (or
    /// zero) is a lookahead violation waiting to happen: the constructor
    /// must reject it with a typed error, and the panicking constructor
    /// must panic — neither may silently run with a reordering window.
    #[test]
    fn unsafe_lookaheads_are_rejected(excess in 1u64..=1_000_000) {
        let mut cfg = build_cfg(Variant::ACC_ASYNC, None, false, true);
        let max = cfg.machine.net_latency.0;
        cfg.pdes_lookahead_ps = Some(max + excess);
        let level = small_level();
        let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
        let res = Simulation::try_new(level, app, cfg.clone());
        prop_assert!(res.is_err(), "lookahead {} > latency {max} accepted", max + excess);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let level = small_level();
            let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
            Simulation::new(level, app, cfg.clone())
        }))
        .is_err();
        prop_assert!(panicked, "Simulation::new accepted an unsafe lookahead");

        // Zero is rejected too: an empty window can never advance.
        let mut zero = build_cfg(Variant::ACC_ASYNC, None, false, true);
        zero.pdes_lookahead_ps = Some(0);
        let level = small_level();
        let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
        prop_assert!(Simulation::try_new(level, app, zero).is_err());
    }
}
