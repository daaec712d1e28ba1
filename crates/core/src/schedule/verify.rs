//! Bridge from compiled [`RankPlan`]s to the static schedule verifier
//! (`sw-analyze`).
//!
//! [`build_schedule_model`] compiles the exact task structure the MPE
//! scheduler ([`super::rank::RankSched`]) executes for one generic timestep
//! into the analyzer's runtime-agnostic [`Schedule`] model: every send,
//! recv, prep, kernel, same-rank copy, reduction contribution, and the
//! virtual step-begin/step-end tasks, each with its explicit region
//! accesses, plus exactly the ordering edges the scheduler *enforces*
//! (dependency gating) — not orderings that merely tend to happen. The
//! analyzer then proves the edges order every conflicting access pair, that
//! ghost messages match up, that the graph is acyclic, and that the tile
//! plans partition each patch exactly within the LDM budget.
//!
//! The model uses the scheduler's own data-warehouse label convention
//! (`schedule::rank`'s `LABEL_U`, `stage_label`, `in_label`): label 0 is the ghosted old-DW solution `u`; label `1 + s` is stage `s`'s
//! output in the new DW (allocated ghosted so it can serve as the next
//! stage's input).

use sw_analyze::{
    analyze, prove_lookahead, AccessKind, AnalysisReport, Box3, ChannelModel, GhostMsg,
    LookaheadProof, NetModel, Schedule, TaskKind, VarRef,
};
use sw_athread::{assign_tiles, choose_tile_shape, tiles_of, InOutFootprint, TileDesc};
use sw_sim::MachineConfig;

use crate::grid::{Level, Region};
use crate::schedule::rank::{in_label, stage_label, LABEL_U};
use crate::schedule::variant::{SchedulerMode, SchedulerOptions, Variant};
use crate::task::plan::RankPlan;

/// Convert a grid region to the analyzer's box (lossless).
fn bx(r: &Region) -> Box3 {
    Box3::new([r.lo.x, r.lo.y, r.lo.z], [r.hi.x, r.hi.y, r.hi.z])
}

/// Compile the per-rank plans into one analyzable schedule model of a
/// generic timestep.
///
/// `ghost` and `stages` come from the application; `variant`, `options`,
/// and `machine` determine the execution model (rank-serial or overlapped,
/// CPE slots) and the tile plans to prove.
#[allow(clippy::too_many_arguments)]
pub fn build_schedule_model(
    name: &str,
    level: &Level,
    plans: &[RankPlan],
    ghost: i64,
    stages: usize,
    variant: Variant,
    options: &SchedulerOptions,
    machine: &MachineConfig,
) -> Schedule {
    assert!(stages >= 1, "an application needs at least one stage");
    let mut s = Schedule::new(name, variant.name());
    s.rank_serial = variant.mode != SchedulerMode::AsyncCpe;
    s.cpe_slots = options.cpe_groups;
    let offload = variant.offloads();

    for plan in plans {
        let r = plan.rank;
        let mut rank_tasks = Vec::new();

        // Virtual source: the previous step's data warehouse being ready.
        let begin = s.add_task(TaskKind::StepBegin, format!("step_begin@r{r}"), r, true);
        for &p in &plan.patches {
            let gregion = level.patch(p).region.grow(ghost);
            s.access(
                begin,
                VarRef {
                    patch: p,
                    label: LABEL_U,
                },
                bx(&gregion),
                AccessKind::Write,
            );
        }

        // §V-C step 3a: stage-0 sends of the old-DW ghost data.
        for snd in &plan.sends {
            let t = s.add_task(
                TaskKind::Send,
                format!("send(p{},s0)@r{r}", snd.src_patch),
                r,
                true,
            );
            s.tasks[t].msg = Some(GhostMsg {
                src_rank: r,
                dst_rank: snd.dst_rank,
                src_patch: snd.src_patch,
                stage: 0,
                window: bx(&snd.window),
            });
            s.access(
                t,
                VarRef {
                    patch: snd.src_patch,
                    label: LABEL_U,
                },
                bx(&snd.window),
                AccessKind::Read,
            );
            rank_tasks.push(t);
        }

        // Receives for every stage (posted up front; later stages' messages
        // arrive as their remote producers complete).
        let mut recv_ids: Vec<Vec<sw_analyze::TaskId>> = Vec::new();
        for stage in 0..stages {
            let mut ids = Vec::new();
            for rv in &plan.recvs {
                let t = s.add_task(
                    TaskKind::Recv,
                    format!("recv(p{},s{stage})@r{r}", rv.dst_patch),
                    r,
                    true,
                );
                s.tasks[t].msg = Some(GhostMsg {
                    src_rank: rv.src_rank,
                    dst_rank: r,
                    src_patch: rv.src_patch,
                    stage,
                    window: bx(&rv.window),
                });
                // Stage 0 unpacks into the old DW; stage k >= 1 carries the
                // remote (k-1)-stage output: the stage's input label.
                s.access(
                    t,
                    VarRef {
                        patch: rv.dst_patch,
                        label: in_label(stage),
                    },
                    bx(&rv.window),
                    AccessKind::Write,
                );
                rank_tasks.push(t);
                ids.push(t);
            }
            recv_ids.push(ids);
        }

        // Prep + kernel per patch per stage, chained per patch.
        let mut kernel_of = std::collections::BTreeMap::new();
        let mut prep_of = std::collections::BTreeMap::new();
        for st in 0..stages {
            for &p in &plan.patches {
                let prep = &plan.prep[&p];
                let t = s.add_task(TaskKind::Prep, format!("prep(p{p},s{st})@r{r}"), r, true);
                if st == 0 {
                    // Same-rank ghost copies out of the old DW.
                    for lc in &prep.local_copies {
                        s.access(
                            t,
                            VarRef {
                                patch: lc.src_patch,
                                label: LABEL_U,
                            },
                            bx(&lc.window),
                            AccessKind::Read,
                        );
                        s.access(
                            t,
                            VarRef {
                                patch: lc.dst_patch,
                                label: LABEL_U,
                            },
                            bx(&lc.window),
                            AccessKind::Write,
                        );
                    }
                }
                // Boundary fills of the stage's input.
                for bc in &prep.bc_regions {
                    s.access(
                        t,
                        VarRef {
                            patch: p,
                            label: in_label(st),
                        },
                        bx(bc),
                        AccessKind::Write,
                    );
                }
                rank_tasks.push(t);
                prep_of.insert((p, st), t);
                // Gating: remote ghosts of this stage must have arrived.
                for &rt in &recv_ids[st] {
                    if s.tasks[rt].accesses[0].var.patch == p {
                        s.add_edge(rt, t);
                    }
                }
                // The patch's previous stage must have computed.
                if st > 0 {
                    s.add_edge(kernel_of[&(p, st - 1)], t);
                }

                let k = s.add_task(
                    TaskKind::Kernel,
                    format!("kernel(p{p},s{st})@r{r}"),
                    r,
                    !offload,
                );
                let region = level.patch(p).region;
                s.access(
                    k,
                    VarRef {
                        patch: p,
                        label: in_label(st),
                    },
                    bx(&region.grow(ghost)),
                    AccessKind::Read,
                );
                s.access(
                    k,
                    VarRef {
                        patch: p,
                        label: stage_label(st),
                    },
                    bx(&region),
                    AccessKind::Write,
                );
                rank_tasks.push(k);
                kernel_of.insert((p, st), k);
                s.add_edge(t, k);
            }
        }

        // §V-C step 3(b)i: a finished non-final stage feeds neighbors — a
        // send per remote face, a DW copy per same-rank face.
        for st in 0..stages - 1 {
            for &p in &plan.patches {
                let out_label = stage_label(st);
                for snd in &plan.sends {
                    if snd.src_patch != p {
                        continue;
                    }
                    let t = s.add_task(
                        TaskKind::Send,
                        format!("send(p{p},s{})@r{r}", st + 1),
                        r,
                        true,
                    );
                    s.tasks[t].msg = Some(GhostMsg {
                        src_rank: r,
                        dst_rank: snd.dst_rank,
                        src_patch: p,
                        stage: st + 1,
                        window: bx(&snd.window),
                    });
                    s.access(
                        t,
                        VarRef {
                            patch: p,
                            label: out_label,
                        },
                        bx(&snd.window),
                        AccessKind::Read,
                    );
                    rank_tasks.push(t);
                    s.add_edge(kernel_of[&(p, st)], t);
                }
                for (&dst, prep) in &plan.prep {
                    for lc in &prep.local_copies {
                        if lc.src_patch != p {
                            continue;
                        }
                        let t = s.add_task(
                            TaskKind::Copy,
                            format!("copy(p{p}->p{dst},s{st})@r{r}"),
                            r,
                            true,
                        );
                        s.access(
                            t,
                            VarRef {
                                patch: p,
                                label: out_label,
                            },
                            bx(&lc.window),
                            AccessKind::Read,
                        );
                        s.access(
                            t,
                            VarRef {
                                patch: dst,
                                label: out_label,
                            },
                            bx(&lc.window),
                            AccessKind::Write,
                        );
                        rank_tasks.push(t);
                        s.add_edge(kernel_of[&(p, st)], t);
                        s.add_edge(t, prep_of[&(dst, st + 1)]);
                    }
                }
            }
        }

        // §V-C step 3d: the per-step reduction over last-stage outputs.
        let red = s.add_task(TaskKind::Reduce, format!("reduce@r{r}"), r, true);
        for &p in &plan.patches {
            s.access(
                red,
                VarRef {
                    patch: p,
                    label: stage_label(stages - 1),
                },
                bx(&level.patch(p).region.grow(ghost)),
                AccessKind::Read,
            );
            s.add_edge(kernel_of[&(p, stages - 1)], red);
        }
        rank_tasks.push(red);

        // Virtual sink: the data-warehouse swap at end of step.
        let end = s.add_task(TaskKind::StepEnd, format!("step_end@r{r}"), r, true);
        for &p in &plan.patches {
            let region = level.patch(p).region;
            s.access(
                end,
                VarRef {
                    patch: p,
                    label: stage_label(stages - 1),
                },
                bx(&region),
                AccessKind::Read,
            );
            s.access(
                end,
                VarRef {
                    patch: p,
                    label: LABEL_U,
                },
                bx(&region),
                AccessKind::Write,
            );
        }
        // The step ends only when every task of the rank has completed
        // (pending sends/recvs drained, all patches advanced, reduction
        // contributed) — the scheduler enforces all of these.
        for &t in &rank_tasks {
            s.add_edge(begin, t);
            s.add_edge(t, end);
        }
        s.add_edge(begin, end);
    }

    // Tile plans: one per distinct patch shape, exactly as the scheduler
    // sizes them (offloading variants only; the MPE computes whole patches
    // in main memory).
    if offload {
        let mut seen = std::collections::BTreeSet::new();
        for plan in plans {
            for &p in &plan.patches {
                let dims = level.patch(p).region.dims();
                if !seen.insert(dims) {
                    continue;
                }
                let fp = InOutFootprint {
                    ghost: ghost as usize,
                };
                let cpes = machine.cpes_per_cg / options.cpe_groups;
                let assignment = match choose_tile_shape(dims, &fp, machine.ldm_bytes, cpes) {
                    Some(shape) => assign_tiles(&tiles_of(dims, shape), cpes),
                    // No shape fits: model the forced whole-patch tile so
                    // the analyzer reports the overflow with byte counts
                    // (the scheduler would panic here).
                    None => vec![vec![TileDesc {
                        origin: (0, 0, 0),
                        dims,
                    }]],
                };
                s.tile_plans.push(sw_analyze::TilePlan {
                    name: format!("tiles({}x{}x{},g{ghost})", dims.0, dims.1, dims.2),
                    out_dims: dims,
                    ghost: ghost as usize,
                    assignment,
                    ldm_bytes: machine.ldm_bytes,
                });
            }
        }
    }

    s
}

/// Build the model and analyze it in one call — the
/// [`SchedulerOptions::verify`] gate and `repro analyze` both run this.
#[allow(clippy::too_many_arguments)]
pub fn verify_plans(
    name: &str,
    level: &Level,
    plans: &[RankPlan],
    ghost: i64,
    stages: usize,
    variant: Variant,
    options: &SchedulerOptions,
    machine: &MachineConfig,
) -> AnalysisReport {
    analyze(&build_schedule_model(
        name, level, plans, ghost, stages, variant, options, machine,
    ))
}

/// The network model of the static lookahead proof, mirrored from the
/// machine configuration and the communicator's wire constants.
pub fn net_model(machine: &MachineConfig) -> NetModel {
    net_model_with(machine, &sw_mpi::CommConfig::default())
}

/// [`net_model`] under explicit communication-layer knobs: an
/// [`sw_mpi::CommConfig::eager_crossover`] overrides the machine's
/// eager/rendezvous threshold, exactly as the communicator's send path
/// does, so the proof's smallest-packet-per-channel reasoning follows the
/// protocol actually run.
pub fn net_model_with(machine: &MachineConfig, comm: &sw_mpi::CommConfig) -> NetModel {
    NetModel {
        latency_ps: machine.net_latency.0,
        bw_gbs: machine.net_bw_gbs,
        eager_limit_bytes: comm
            .eager_crossover
            .unwrap_or(machine.eager_limit_bytes as u64),
        ctrl_bytes: sw_mpi::CTRL_BYTES,
    }
}

/// Extract every cross-CG channel of the compiled plans: one
/// [`ChannelModel`] per `GhostSend`, with the payload size the scheduler
/// actually puts on the wire (`window.cells() * 8` bytes of f64 ghosts).
pub fn channel_models(plans: &[RankPlan]) -> Vec<ChannelModel> {
    plans
        .iter()
        .flat_map(|plan| {
            plan.sends.iter().map(move |snd| ChannelModel {
                src_rank: plan.rank,
                dst_rank: snd.dst_rank,
                bytes: snd.window.cells() * 8,
                label: format!(
                    "ghost(p{},{:?})@r{}->r{}",
                    snd.src_patch, snd.face, plan.rank, snd.dst_rank
                ),
            })
        })
        .collect()
}

/// [`channel_models`] under explicit communication-layer knobs.
///
/// With message aggregation on, eager-path ghost sends into a rank pair
/// share that pair's staging buffers and go out as coalesced packets; the
/// analyzer folds them into one channel per pair whose payload is the
/// smallest member's — the smallest packet a deadline flush can emit
/// ([`sw_analyze::coalesce_channels`] documents why the fold is sound for
/// any endpoint count). The crossover knob shifts which sends are on the
/// eager path in the first place. Without aggregation this is exactly
/// [`channel_models`].
pub fn channel_models_with(
    plans: &[RankPlan],
    machine: &MachineConfig,
    comm: &sw_mpi::CommConfig,
) -> Vec<ChannelModel> {
    let per_send = channel_models(plans);
    if comm.aggregation() {
        sw_analyze::coalesce_channels(&per_send, &net_model_with(machine, comm))
    } else {
        per_send
    }
}

/// Statically prove `min_latency >= lookahead` for every cross-CG channel
/// of the compiled plans — the pre-run form of the `merge_outboxes`
/// lookahead-violation check. Returns the proof artifact plus one
/// `lookahead_unsafe` error finding per violated channel.
pub fn prove_lookahead_for_plans(
    plans: &[RankPlan],
    machine: &MachineConfig,
    lookahead_ps: u64,
) -> (LookaheadProof, Vec<sw_analyze::Finding>) {
    prove_lookahead_for_plans_with(plans, machine, &sw_mpi::CommConfig::default(), lookahead_ps)
}

/// [`prove_lookahead_for_plans`] under explicit communication-layer knobs:
/// the channel inventory sees coalesced channels when aggregation is on
/// and the eager decision follows the effective crossover, so the proof
/// stays sound over the protocol the communicator actually runs.
pub fn prove_lookahead_for_plans_with(
    plans: &[RankPlan],
    machine: &MachineConfig,
    comm: &sw_mpi::CommConfig,
    lookahead_ps: u64,
) -> (LookaheadProof, Vec<sw_analyze::Finding>) {
    prove_lookahead(
        &channel_models_with(plans, machine, comm),
        &net_model_with(machine, comm),
        lookahead_ps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::iv;
    use crate::lb::LoadBalancer;
    use crate::task::plan::build_rank_plans;

    fn plans_for(level: &Level, n_ranks: usize, ghost: i64) -> Vec<RankPlan> {
        let a = LoadBalancer::Block.assign(level, n_ranks);
        build_rank_plans(level, &a, n_ranks, ghost)
    }

    fn check_clean(level: &Level, n_ranks: usize, stages: usize, variant: Variant) {
        let plans = plans_for(level, n_ranks, 1);
        let opts = SchedulerOptions::default();
        let machine = MachineConfig::sw26010();
        let rep = verify_plans("test", level, &plans, 1, stages, variant, &opts, &machine);
        assert!(
            rep.is_clean(),
            "variant {} ranks {n_ranks} stages {stages}:\n{}",
            variant.name(),
            rep.render()
        );
        assert!(rep.findings.is_empty(), "{}", rep.render());
    }

    #[test]
    fn shipped_plans_are_clean_all_variants() {
        let level = Level::new(iv(16, 16, 64), iv(2, 2, 2));
        for variant in Variant::TABLE_IV {
            for n_ranks in [1, 4] {
                for stages in [1, 3] {
                    check_clean(&level, n_ranks, stages, variant);
                }
            }
        }
    }

    #[test]
    fn model_counts_match_plan_structure() {
        let level = Level::new(iv(16, 16, 64), iv(2, 2, 2));
        let stages = 2;
        let plans = plans_for(&level, 2, 1);
        let opts = SchedulerOptions::default();
        let machine = MachineConfig::sw26010();
        let s = build_schedule_model(
            "t",
            &level,
            &plans,
            1,
            stages,
            Variant::ACC_ASYNC,
            &opts,
            &machine,
        );
        let n_sends: usize = plans.iter().map(|p| p.sends.len()).sum();
        let n_recvs: usize = plans.iter().map(|p| p.recvs.len()).sum();
        let n_patches = level.n_patches();
        assert_eq!(s.tasks_of_kind(TaskKind::Send).len(), n_sends * stages);
        assert_eq!(s.tasks_of_kind(TaskKind::Recv).len(), n_recvs * stages);
        assert_eq!(s.tasks_of_kind(TaskKind::Kernel).len(), n_patches * stages);
        assert_eq!(s.tasks_of_kind(TaskKind::Prep).len(), n_patches * stages);
        assert_eq!(s.tasks_of_kind(TaskKind::StepBegin).len(), 2);
        assert_eq!(s.tasks_of_kind(TaskKind::StepEnd).len(), 2);
        // One tile plan per distinct patch shape (uniform level: one).
        assert_eq!(s.tile_plans.len(), 1);
    }

    #[test]
    fn injected_missing_edge_is_detected() {
        let level = Level::new(iv(8, 8, 16), iv(2, 1, 1));
        let plans = plans_for(&level, 1, 1);
        let opts = SchedulerOptions::default();
        let machine = MachineConfig::sw26010();
        let mut s = build_schedule_model(
            "t",
            &level,
            &plans,
            1,
            1,
            Variant::ACC_ASYNC,
            &opts,
            &machine,
        );
        // Drop every prep -> kernel edge: kernels may now read ghosts the
        // prep is still writing.
        let kernels = s.tasks_of_kind(TaskKind::Kernel);
        let preps = s.tasks_of_kind(TaskKind::Prep);
        s.edges
            .retain(|&(a, b)| !(preps.contains(&a) && kernels.contains(&b)));
        let rep = analyze(&s);
        assert!(!rep.is_clean(), "dropped edges must be flagged");
        assert!(
            rep.findings
                .iter()
                .any(|f| f.tasks.iter().any(|t| t.starts_with("prep"))
                    && f.tasks.iter().any(|t| t.starts_with("kernel"))),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn mpe_only_has_no_tile_plans() {
        let level = Level::new(iv(8, 8, 16), iv(1, 1, 1));
        let plans = plans_for(&level, 1, 1);
        let s = build_schedule_model(
            "t",
            &level,
            &plans,
            1,
            1,
            Variant::HOST_SYNC,
            &SchedulerOptions::default(),
            &MachineConfig::sw26010(),
        );
        assert!(s.tile_plans.is_empty());
        assert!(s.rank_serial);
    }

    #[test]
    fn lookahead_proof_covers_every_plan_channel() {
        let level = Level::new(iv(16, 16, 64), iv(2, 2, 2));
        let plans = plans_for(&level, 2, 1);
        let machine = MachineConfig::sw26010();
        let n_sends: usize = plans.iter().map(|p| p.sends.len()).sum();
        assert!(n_sends > 0);
        let channels = channel_models(&plans);
        assert_eq!(channels.len(), n_sends);
        let sends: Vec<_> = plans.iter().flat_map(|p| p.sends.iter()).collect();
        for (ch, snd) in channels.iter().zip(&sends) {
            assert_eq!(ch.bytes, snd.window.cells() * 8, "{}", ch.label);
            assert_eq!(ch.dst_rank, snd.dst_rank);
        }
        let net = net_model(&machine);
        assert_eq!(net.latency_ps, machine.net_latency.0);
        assert_eq!(net.ctrl_bytes, sw_mpi::CTRL_BYTES);
        // The default lookahead (the net latency) is provably safe: every
        // channel's minimum is latency + a strictly positive wire time.
        let (proof, findings) = prove_lookahead_for_plans(&plans, &machine, machine.net_latency.0);
        assert!(proof.safe, "{proof:?}");
        assert!(findings.is_empty());
        assert!(proof.min_latency_ps > machine.net_latency.0);
        assert!(proof.channels.iter().all(|c| c.slack_ps > 0));
    }

    #[test]
    fn comm_aware_proof_coalesces_channels_and_keeps_the_global_minimum() {
        let level = Level::new(iv(16, 16, 64), iv(2, 2, 2));
        let plans = plans_for(&level, 4, 1);
        let machine = MachineConfig::sw26010();
        let comm = sw_mpi::CommConfig {
            endpoints: 4,
            agg_bytes: 4096,
            agg_deadline_ps: 5_000_000,
            eager_crossover: None,
            progress_lane: true,
        };

        // Aggregation folds eager sends into one channel per rank pair.
        let per_send = channel_models(&plans);
        let folded = channel_models_with(&plans, &machine, &comm);
        assert!(folded.len() < per_send.len(), "nothing coalesced");
        let net = net_model_with(&machine, &comm);
        for ch in &folded {
            if ch.label.starts_with("coalesced") {
                let members: Vec<_> = per_send
                    .iter()
                    .filter(|c| {
                        (c.src_rank, c.dst_rank) == (ch.src_rank, ch.dst_rank)
                            && net.is_eager(c.bytes)
                    })
                    .collect();
                assert!(!members.is_empty(), "{}", ch.label);
                assert_eq!(
                    ch.bytes,
                    members.iter().map(|c| c.bytes).min().unwrap(),
                    "folded channel must bound its smallest member: {}",
                    ch.label
                );
            }
        }

        // The fold preserves the global minimum — the quantity the window
        // barrier enforces — so the comm-aware proof accepts and rejects
        // exactly the lookaheads the per-send proof does.
        let (base, _) = prove_lookahead_for_plans(&plans, &machine, 0);
        let (with, findings) =
            prove_lookahead_for_plans_with(&plans, &machine, &comm, machine.net_latency.0);
        assert!(with.safe, "{with:?}");
        assert!(findings.is_empty());
        assert_eq!(with.min_latency_ps, base.min_latency_ps);
        let (bad, bad_findings) =
            prove_lookahead_for_plans_with(&plans, &machine, &comm, base.min_latency_ps + 1);
        assert!(!bad.safe);
        assert!(!bad_findings.is_empty());

        // A crossover below every ghost payload pushes all channels onto
        // the rendezvous path: nothing left to coalesce, and the proved
        // minimum becomes the bare control packet's delivery.
        let rdv = sw_mpi::CommConfig {
            eager_crossover: Some(sw_mpi::CTRL_BYTES),
            ..comm
        };
        let rdv_channels = channel_models_with(&plans, &machine, &rdv);
        assert!(rdv_channels
            .iter()
            .all(|c| !c.label.starts_with("coalesced")));
        let (rdv_proof, _) = prove_lookahead_for_plans_with(&plans, &machine, &rdv, 0);
        let ctrl_min = net_model_with(&machine, &rdv).min_delivery_ps(sw_mpi::CTRL_BYTES + 1);
        assert_eq!(rdv_proof.min_latency_ps, ctrl_min);
    }

    /// Acceptance regression: a lookahead the static proof rejects is
    /// exactly one the machine's `merge_outboxes` would refuse at runtime —
    /// both paths agree on the boundary, to the picosecond.
    #[test]
    fn static_proof_and_machine_merge_agree_on_the_boundary() {
        use sw_sim::{Machine, SimTime};
        let level = Level::new(iv(16, 16, 64), iv(2, 2, 2));
        let plans = plans_for(&level, 2, 1);
        let machine = MachineConfig::sw26010();
        let (base, _) = prove_lookahead_for_plans(&plans, &machine, 0);
        let min = base.min_latency_ps;
        assert_ne!(min, u64::MAX, "cross-rank plans must have channels");

        // One ps past the proven minimum: the static proof flags it...
        let (proof, findings) = prove_lookahead_for_plans(&plans, &machine, min + 1);
        assert!(!proof.safe);
        assert!(findings
            .iter()
            .any(|f| f.kind == sw_analyze::FindingKind::LookaheadUnsafe));

        // ...and the machine model agrees bit-for-bit: the tightest
        // channel's wire packet, sent at t = 0, delivers exactly at the
        // proved minimum (the proof mirrors the model's ps rounding)...
        let tight = proof
            .channels
            .iter()
            .min_by_key(|c| c.min_latency_ps)
            .unwrap();
        let wire = if tight.bytes <= machine.eager_limit_bytes as u64 {
            tight.bytes.max(sw_mpi::CTRL_BYTES)
        } else {
            sw_mpi::CTRL_BYTES
        };
        let mut m = Machine::new(machine.clone(), 2);
        let deliver =
            m.ctx(tight.src_rank)
                .net_send(tight.src_rank, tight.dst_rank, wire, SimTime::ZERO, 7);
        assert_eq!(deliver.0, tight.min_latency_ps, "proof == model");

        // ...so merging with a window that ends one ps later — the runtime
        // shape of the rejected lookahead — is the violation that used to
        // be a mid-run panic:
        let v = m
            .merge_outboxes(Some(SimTime(tight.min_latency_ps + 1)))
            .unwrap_err();
        assert_eq!((v.src, v.dst), (tight.src_rank, tight.dst_rank));
        assert_eq!(v.at.0, tight.min_latency_ps);

        // While a window ending exactly at the proved minimum merges fine.
        let mut safe = Machine::new(machine.clone(), 2);
        safe.ctx(tight.src_rank)
            .net_send(tight.src_rank, tight.dst_rank, wire, SimTime::ZERO, 7);
        assert!(safe
            .merge_outboxes(Some(SimTime(tight.min_latency_ps)))
            .is_ok());
    }
}
