//! Property tests for the communication layer (DESIGN.md §18): the
//! eager/rendezvous crossover and the aggregation flush policy are pure
//! transport choices — whatever knob values the strategies draw, the
//! functional warehouse must come out bit-for-bit identical to the
//! single-endpoint, no-aggregation baseline, and instrumented runs must
//! still reconcile with their `RunReport` step clocks.

use std::sync::Arc;

use burgers::BurgersApp;
use proptest::prelude::*;
use sw_math::ExpKind;
use sw_mpi::CommConfig;
use sw_telemetry::analyze;
use uintah_core::task::build_rank_plan;
use uintah_core::{iv, ExecMode, Level, RunConfig, Simulation, Variant};

/// The tiny sweep shape: 4 patches over 2 ranks, enough for cross-rank
/// ghost traffic in every step.
const CGS: usize = 2;
const STEPS: u32 = 2;

fn level() -> Level {
    Level::new(iv(8, 8, 16), iv(2, 2, 1))
}

/// Functional run under `comm`: final warehouse of every patch as exact
/// bit patterns.
fn functional_bits(comm: CommConfig) -> Vec<Vec<u64>> {
    let level = level();
    let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
    let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, CGS);
    cfg.steps = STEPS;
    cfg.comm = comm;
    let mut sim = Simulation::new(level, app, cfg);
    sim.run();
    sim.solution_bits()
}

/// Instrumented model run under `comm`: `(reconciled, agg_flushes)`.
fn model_reconciles(comm: CommConfig) -> (bool, usize) {
    let level = level();
    let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
    let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, CGS);
    cfg.steps = STEPS;
    cfg.options.telemetry = true;
    cfg.comm = comm;
    let mut sim = Simulation::new(level, app, cfg);
    let report = sim.run();
    let snap = sim.recorder().snapshot();
    let phases = analyze(&snap);
    let reconciled = phases.step_end_ps.len() == report.step_end.len()
        && phases
            .step_end_ps
            .iter()
            .zip(&report.step_end)
            .all(|(&ps, t)| ps == t.0)
        && phases.breakdowns.iter().all(|b| b.sum_ps() == b.window_ps);
    let flushes = snap
        .iter()
        .flatten()
        .filter(|r| matches!(r.event, sw_telemetry::Event::AggFlushed { .. }))
        .count();
    (reconciled, flushes)
}

/// The largest ghost payload (bytes) any rank of the tiny level sends —
/// the crossover boundary the properties straddle.
fn max_ghost_payload() -> u64 {
    let level = level();
    let cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, CGS);
    let assignment = cfg.lb.assign(&level, CGS);
    (0..CGS)
        .flat_map(|r| {
            build_rank_plan(&level, &assignment, r, 1)
                .sends
                .iter()
                .map(|s| s.window.cells() * 8)
                .collect::<Vec<_>>()
        })
        .max()
        .expect("cross-rank plans must have sends")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crossover boundary: for any offset in {-1, 0, +1} around any ghost
    /// payload boundary, the eager/rendezvous flip changes only packet
    /// timing — the functional warehouse is byte-identical to the
    /// baseline, and the instrumented run at the same crossover still
    /// reconciles with its report.
    #[test]
    fn crossover_boundary_is_byte_identical_and_reconciled(
        offset in -1i64..=1,
        endpoints in 1u32..=4,
    ) {
        let base = functional_bits(CommConfig::default());
        let xo = max_ghost_payload().saturating_add_signed(offset);
        let comm = CommConfig {
            endpoints,
            eager_crossover: Some(xo),
            progress_lane: true,
            ..CommConfig::default()
        };
        prop_assert_eq!(&functional_bits(comm), &base,
            "crossover {} flipped the warehouse", xo);
        let (reconciled, _) = model_reconciles(comm);
        prop_assert!(reconciled, "crossover {} broke reconciliation", xo);
    }

    /// Flush ordering: a configuration that flushes by the byte threshold
    /// (tiny `agg_bytes`, distant deadline) and one that flushes by the
    /// deadline (huge `agg_bytes`, tight deadline) drain the same staged
    /// messages in the same push order — identical warehouse bytes, both
    /// against each other and against the unaggregated baseline.
    #[test]
    fn flush_by_bytes_and_flush_by_deadline_agree(
        agg_bytes in 128u64..2048,
        deadline_us in 1u64..10,
    ) {
        let base = functional_bits(CommConfig::default());
        let by_bytes = CommConfig {
            endpoints: 2,
            agg_bytes,
            agg_deadline_ps: 1_000_000_000, // 1 ms: never reached
            progress_lane: true,
            ..CommConfig::default()
        };
        let by_deadline = CommConfig {
            endpoints: 2,
            agg_bytes: u64::MAX >> 1, // byte threshold never reached
            agg_deadline_ps: deadline_us * 1_000_000,
            progress_lane: true,
            ..CommConfig::default()
        };
        let bytes_bits = functional_bits(by_bytes);
        let deadline_bits = functional_bits(by_deadline);
        prop_assert_eq!(&bytes_bits, &base, "flush-by-bytes changed the warehouse");
        prop_assert_eq!(&deadline_bits, &base, "flush-by-deadline changed the warehouse");
        // Both policies must actually coalesce something in model mode.
        let (rec_b, flushes_b) = model_reconciles(by_bytes);
        let (rec_d, flushes_d) = model_reconciles(by_deadline);
        prop_assert!(rec_b && rec_d, "an aggregated run failed to reconcile");
        prop_assert!(flushes_b > 0, "flush-by-bytes never flushed");
        prop_assert!(flushes_d > 0, "flush-by-deadline never flushed");
    }
}
