//! Property tests for the concurrency checkers (DESIGN.md §15): the static
//! lookahead proof, the vector-clock race detector, and the static/dynamic
//! differential are each shown to *fail* under seeded fault injection — a
//! lookahead shrunk past the proved minimum is flagged channel-for-channel,
//! a trace with a relocated delivery produces a race on the ghost region,
//! and a trace with a dropped message post breaks the happens-before
//! reconstruction structurally.

use std::sync::Arc;

use burgers::BurgersApp;
use proptest::prelude::*;
use sw_math::ExpKind;
use sw_telemetry::{Event, EventRecord};
use uintah_core::task::plan::{build_rank_plan, decode_ghost_tag};
use uintah_core::task::{Application, RankPlan};
use uintah_core::{
    iv, prove_lookahead_for_plans, race_check, ExecMode, Level, LoadBalancer, RunConfig,
    Simulation, Variant,
};

fn plans_for(level: &Level, cgs: usize, ghost: i64) -> Vec<RankPlan> {
    let a = LoadBalancer::Block.assign(level, cgs);
    (0..cgs)
        .map(|r| build_rank_plan(level, &a, r, ghost))
        .collect()
}

/// Run a tiny instrumented simulation and return everything the race
/// checker needs: the mutable snapshot, the level, and the compiled plans.
fn traced_run(cgs: usize, steps: u32) -> (Vec<Vec<EventRecord>>, Level, Vec<RankPlan>, usize) {
    let level = Level::new(iv(8, 8, 16), iv(2, 2, 1));
    let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
    let mut cfg = RunConfig::paper(Variant::ACC_SYNC, ExecMode::Model, cgs);
    cfg.steps = steps;
    cfg.options.telemetry = true;
    let mut sim = Simulation::new(level.clone(), app.clone(), cfg);
    sim.run();
    let snap = sim.recorder().snapshot();
    let plans = plans_for(&level, cgs, app.ghost());
    (snap, level, plans, app.stages())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shrinking the lookahead past the proved minimum is flagged, and
    /// *exactly* the channels whose bound the new lookahead violates are
    /// named — no more, no fewer.
    #[test]
    fn shrunk_lookahead_is_flagged_channel_for_channel(
        lx in 2i64..4,
        cgs_raw in 2usize..5,
        delta in 1u64..2_000_000,
    ) {
        let level = Level::new(iv(8 * lx, 8, 16), iv(lx, 2, 1));
        let n_patches = (lx * 2) as usize;
        let cgs = cgs_raw.min(n_patches);
        let plans = plans_for(&level, cgs, 1);
        let cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, cgs);

        // The proof at the default lookahead (the calibrated net latency)
        // is safe: the model can never deliver faster than latency + wire.
        let default_la = cfg.machine.net_latency.0;
        let (proof, findings) = prove_lookahead_for_plans(&plans, &cfg.machine, default_la);
        prop_assert!(proof.safe, "default lookahead flagged:\n{proof:?}");
        prop_assert!(findings.is_empty());
        let min = proof.min_latency_ps;
        prop_assert!(min >= default_la);

        // Any lookahead at or below the proved minimum stays safe...
        let (at_min, f_at_min) = prove_lookahead_for_plans(&plans, &cfg.machine, min);
        prop_assert!(at_min.safe && f_at_min.is_empty());

        // ...and one past it is flagged, naming exactly the channels whose
        // minimum the shrunk window overruns.
        let unsafe_la = min + delta;
        let (bad, bad_findings) = prove_lookahead_for_plans(&plans, &cfg.machine, unsafe_la);
        prop_assert!(!bad.safe, "lookahead {unsafe_la} past min {min} not flagged");
        let expected = bad
            .channels
            .iter()
            .filter(|c| c.min_latency_ps < unsafe_la)
            .count();
        prop_assert!(expected >= 1);
        prop_assert_eq!(bad_findings.len(), expected,
            "one finding per violated channel");
        prop_assert_eq!(bad.violations().count(), expected);
    }

    /// Relocating a delivery into the window of a kernel that reads the
    /// ghost region it writes makes the race detector fire: the write is
    /// no longer ordered before the CPE-side read.
    #[test]
    fn relocated_delivery_races_the_kernel_ghost_read(pick in 0usize..1024) {
        let (mut snap, level, plans, stages) = traced_run(4, 2);
        let baseline = race_check(&snap, &level, &plans, stages);
        prop_assert!(baseline.is_clean(), "{}", baseline.summary());

        // Candidate faults: a delivery at i whose destination-ghost patch
        // is computed by a kernel offload spanning (j, k) later in the
        // same rank buffer, within the same step.
        let mut candidates = Vec::new();
        for (r, buf) in snap.iter().enumerate() {
            let mut step = 0u32;
            let mut deliveries: Vec<(usize, u32, usize)> = Vec::new();
            for (idx, rec) in buf.iter().enumerate() {
                match rec.event {
                    Event::Barrier { .. } => step += 1,
                    Event::MsgDelivered { tag, .. } if tag < sw_mpi::APP_TAG_LIMIT => {
                        let (s, _, src_patch, face) =
                            decode_ghost_tag(tag, stages, level.n_patches());
                        if let Some(dst) = level.neighbor(src_patch, face) {
                            deliveries.push((idx, s, dst));
                        }
                    }
                    Event::OffloadStart { patch, token } => {
                        for &(i, s, dst) in &deliveries {
                            if dst != patch || s != step {
                                continue;
                            }
                            // The matching done closes the kernel window.
                            if buf.iter().skip(idx + 1).any(|r2| matches!(
                                r2.event,
                                Event::OffloadDone { patch: p2, token: t2 }
                                    if p2 == patch && t2 == token
                            )) {
                                candidates.push((r, i, idx));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        prop_assert!(!candidates.is_empty(),
            "a multi-rank traced run must exchange ghosts before kernels");
        let (r, i, j) = candidates[pick % candidates.len()];
        let rec = snap[r].remove(i);
        snap[r].insert(j, rec); // now sits just inside the kernel window

        let rep = race_check(&snap, &level, &plans, stages);
        prop_assert!(!rep.race.races.is_empty(),
            "relocated delivery not reported: {}", rep.summary());
        prop_assert!(
            rep.race.races.iter().any(|f| f.a.contains("ghost") || f.b.contains("ghost")),
            "the race must involve the ghost region: {:?}", rep.race.races
        );
    }

    /// Dropping a message post (a happens-before edge source) breaks the
    /// trace structurally: its delivery can no longer be explained.
    #[test]
    fn dropped_post_is_a_structural_failure(pick in 0usize..1024) {
        let (mut snap, level, plans, stages) = traced_run(2, 2);
        let baseline = race_check(&snap, &level, &plans, stages);
        prop_assert!(baseline.is_clean(), "{}", baseline.summary());

        let posts: Vec<(usize, usize)> = snap
            .iter()
            .enumerate()
            .flat_map(|(r, buf)| {
                buf.iter().enumerate().filter_map(move |(i, rec)| match rec.event {
                    Event::MsgPosted { tag, .. } if tag < sw_mpi::APP_TAG_LIMIT => {
                        Some((r, i))
                    }
                    _ => None,
                })
            })
            .collect();
        prop_assert!(!posts.is_empty(), "traced run must post app messages");
        let (r, i) = posts[pick % posts.len()];
        snap[r].remove(i);

        let rep = race_check(&snap, &level, &plans, stages);
        prop_assert!(!rep.structural_errors.is_empty(),
            "dropped post not caught: {}", rep.summary());
        prop_assert!(!rep.is_clean());
    }
}
