//! The dynamic race detector: map a recorded telemetry trace to data
//! warehouse accesses, check every conflicting pair is ordered by the
//! trace's reconstructed happens-before relation, and differentially
//! verify the observed message edges against the compiled plans.
//!
//! This is the runtime-specific half of the checker split described in
//! `sw-telemetry::race`: the leaf crate rebuilds happens-before from the
//! structured events (program order, offload fork/join, message and
//! reduction edges); this module knows what the events *mean* in terms of
//! warehouse state and produces the [`AccessSpan`]s:
//!
//! * a **prep** span (`TaskStart`..`TaskEnd` on the MPE) writes the ghost
//!   layer of its patch's stage input (same-rank copies, BC fills);
//! * a **kernel** span (`OffloadStart`..`OffloadDone` on a CPE slot) reads
//!   its patch's stage input — ghost and interior — and writes the stage
//!   output interior;
//! * a delivered ghost message (`MsgDelivered`) writes the destination
//!   patch's ghost layer; the matching post (`MsgPosted`) reads the source
//!   patch's interior. Both are attributed through the wire tag
//!   ([`decode_ghost_tag`]), which carries `(step, stage, src_patch,
//!   face)` — immune to the one-step skew the async scheduler allows.
//!
//! Resources are keyed per `(step, patch, label, interior|ghost)`. Labels
//! are the scheduler's (`schedule::rank`), shared with the static verifier
//! (`schedule::verify`): label 0 is the old-DW solution, label `1 + s`
//! stage `s`'s output; stage `s` reads label `s`. Keying by step means
//! cross-step aliasing (the DW swap at the barrier) is *not* modeled — the
//! barrier is deliberately not a synchronization edge either, so the
//! detector stays strict within a step without manufacturing cross-step
//! false positives.
//!
//! The **differential contract** ([`race_check`]): every observed
//! `MsgPosted -> MsgDelivered` edge must be implied by the static model —
//! its decoded `(src_patch, face, dst_rank)` must name a `GhostSend` the
//! plan compiler emitted for the sending rank, with an in-range stage and
//! step. A dynamic edge the static closure cannot account for means the
//! schedule the run executed is not the schedule the verifier proved, and
//! is reported in [`RaceCheckReport::unmatched_edges`].

use std::collections::BTreeMap;
use std::fmt;

use sw_telemetry::race::{trace_hb, AccessKind, AccessSpan, RaceReport};
use sw_telemetry::{Event, EventRecord, Lane};

use crate::grid::Level;
use crate::schedule::rank::{in_label, stage_label};
use crate::task::plan::{decode_ghost_tag, RankPlan};

/// Interior-or-ghost region class of a resource key.
#[derive(Clone, Copy)]
enum RegionClass {
    Interior,
    Ghost,
}

/// Pack `(step, patch, label, class)` into one resource key.
fn resource(
    step: u64,
    patch: usize,
    label: usize,
    class: RegionClass,
    n_patches: usize,
    n_labels: usize,
) -> u64 {
    ((step * n_patches as u64 + patch as u64) * n_labels as u64 + label as u64) * 2
        + matches!(class, RegionClass::Ghost) as u64
}

/// Which runtime action an [`AccessSpan`] stands for. Kept as data: a
/// clean trace has a hundred thousand spans and describes none of them;
/// `Display` renders the diagnostic of the few that race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The action and the patch(es) it touches.
    pub op: AccessOp,
    /// Pipeline stage.
    pub stage: usize,
    /// Rank the action ran on.
    pub rank: usize,
    /// Timestep the touched data belongs to.
    pub step: u64,
}

/// The four warehouse-touching actions the mapper knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOp {
    /// MPE ghost-layer preparation of `patch`.
    Prep {
        /// Patch being prepared.
        patch: usize,
    },
    /// Kernel access to one region (`"in-ghost"`, `"in"`, `"out"`) of `patch`.
    Kernel {
        /// Patch the kernel computes.
        patch: usize,
        /// Region of the stage data the access covers.
        part: &'static str,
    },
    /// Ghost send packing `patch`'s interior slab.
    Send {
        /// Source patch.
        patch: usize,
    },
    /// Ghost delivery unpacking `src`'s slab into `dst`'s ghost layer.
    Recv {
        /// Destination patch.
        dst: usize,
        /// Source patch.
        src: usize,
    },
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Access {
            op,
            stage,
            rank,
            step,
        } = self;
        match op {
            AccessOp::Prep { patch } => write!(f, "prep(p{patch},s{stage})"),
            AccessOp::Kernel { patch, part } => write!(f, "kernel(p{patch},s{stage},{part})"),
            AccessOp::Send { patch } => write!(f, "send(p{patch},s{stage})"),
            AccessOp::Recv { dst, src } => write!(f, "recv(p{dst}<-p{src},s{stage})"),
        }?;
        write!(f, "@r{rank} step {step}")
    }
}

/// The combined verdict of one dynamic pass over a trace snapshot.
#[derive(Debug, Clone, Default)]
pub struct RaceCheckReport {
    /// Events the happens-before relation covers.
    pub hb_events: usize,
    /// Logical `(rank, lane)` threads discovered.
    pub hb_threads: usize,
    /// `MsgPosted -> MsgDelivered` edges honored by the relation.
    pub msg_edges: usize,
    /// `ReduceContribute -> ReduceDone` joins honored.
    pub reduce_edges: usize,
    /// Structural trace defects (delivery without post, partial
    /// reductions) from the happens-before pass.
    pub structural_errors: Vec<String>,
    /// Observed message edges the compiled plans cannot account for — the
    /// static/dynamic differential contract's failures.
    pub unmatched_edges: Vec<String>,
    /// The conflicting-access check over the extracted spans.
    pub race: RaceReport,
}

impl RaceCheckReport {
    /// Clean iff the trace is structurally sound, every message edge is
    /// implied by the static model, and no conflicting pair is unordered.
    pub fn is_clean(&self) -> bool {
        self.structural_errors.is_empty()
            && self.unmatched_edges.is_empty()
            && self.race.races.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} events / {} threads, {} msg edges, {} reduce joins, \
             {} accesses, {} pairs, {} races, {} structural, {} unmatched",
            self.hb_events,
            self.hb_threads,
            self.msg_edges,
            self.reduce_edges,
            self.race.accesses,
            self.race.pairs_checked,
            self.race.races.len(),
            self.structural_errors.len(),
            self.unmatched_edges.len(),
        )
    }
}

/// Extract the warehouse [`AccessSpan`]s of a trace snapshot.
///
/// `n_stages` is the application's pipeline depth (`Application::stages`);
/// `level` resolves delivered ghost messages to the destination patch.
/// Public so fault-injection tests can hand-build adversarial traces and
/// inspect exactly which accesses the mapper attributes.
pub fn access_spans(
    snapshot: &[Vec<EventRecord>],
    level: &Level,
    n_stages: usize,
) -> (Vec<AccessSpan<Access>>, Vec<String>) {
    let n_patches = level.n_patches();
    let n_labels = n_stages + 1;
    let res = |step, patch, label, class| resource(step, patch, label, class, n_patches, n_labels);
    let mut spans = Vec::new();
    let mut errors = Vec::new();
    for (rank, buf) in snapshot.iter().enumerate() {
        // Current step = barriers crossed so far (buffer order is a valid
        // program-order linearization of the rank).
        let mut step = 0u64;
        // Stage of the last TaskStart per patch: kernels inherit it (the
        // offload is recorded between the stage's prep and the next).
        let mut last_stage: BTreeMap<usize, usize> = BTreeMap::new();
        let mut open_prep: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut open_kernel: BTreeMap<(u64, usize), (usize, usize, u64)> = BTreeMap::new();
        for (i, rec) in buf.iter().enumerate() {
            match &rec.event {
                Event::Barrier { .. } => step += 1,
                Event::TaskStart { patch, stage } => {
                    last_stage.insert(*patch, *stage);
                    open_prep.insert((*patch, *stage), i);
                }
                Event::TaskEnd { patch, stage } => {
                    if let Some(s0) = open_prep.remove(&(*patch, *stage)) {
                        // Prep fills the ghost layer of the stage input:
                        // same-rank warehouse copies and BC fills.
                        spans.push(AccessSpan {
                            rank,
                            start: s0,
                            end: i,
                            resource: res(step, *patch, in_label(*stage), RegionClass::Ghost),
                            kind: AccessKind::Write,
                            what: Access {
                                op: AccessOp::Prep { patch: *patch },
                                stage: *stage,
                                rank,
                                step,
                            },
                        });
                    } else {
                        errors.push(format!(
                            "rank {rank}: TaskEnd(p{patch},s{stage}) without TaskStart"
                        ));
                    }
                }
                Event::OffloadStart { patch, token } => {
                    let stage = last_stage.get(patch).copied().unwrap_or(0);
                    open_kernel.insert((*token, *patch), (i, stage, step));
                }
                Event::OffloadDone { patch, token } => {
                    let Some((s0, stage, kstep)) = open_kernel.remove(&(*token, *patch)) else {
                        errors.push(format!(
                            "rank {rank}: OffloadDone(p{patch},tok{token}) without OffloadStart"
                        ));
                        continue;
                    };
                    let what = |part| Access {
                        op: AccessOp::Kernel {
                            patch: *patch,
                            part,
                        },
                        stage,
                        rank,
                        step: kstep,
                    };
                    // The kernel reads the stage input (ghost + interior)
                    // and writes the stage output interior.
                    spans.push(AccessSpan {
                        rank,
                        start: s0,
                        end: i,
                        resource: res(kstep, *patch, in_label(stage), RegionClass::Ghost),
                        kind: AccessKind::Read,
                        what: what("in-ghost"),
                    });
                    spans.push(AccessSpan {
                        rank,
                        start: s0,
                        end: i,
                        resource: res(kstep, *patch, in_label(stage), RegionClass::Interior),
                        kind: AccessKind::Read,
                        what: what("in"),
                    });
                    spans.push(AccessSpan {
                        rank,
                        start: s0,
                        end: i,
                        resource: res(kstep, *patch, stage_label(stage), RegionClass::Interior),
                        kind: AccessKind::Write,
                        what: what("out"),
                    });
                }
                Event::MsgPosted { tag, .. } if *tag < sw_mpi::APP_TAG_LIMIT => {
                    let (mstep, stage, src_patch, _face) =
                        decode_ghost_tag(*tag, n_stages, n_patches);
                    // The send packs the source patch's interior slab of
                    // the stage input.
                    spans.push(AccessSpan {
                        rank,
                        start: i,
                        end: i,
                        resource: res(
                            u64::from(mstep),
                            src_patch,
                            in_label(stage),
                            RegionClass::Interior,
                        ),
                        kind: AccessKind::Read,
                        what: Access {
                            op: AccessOp::Send { patch: src_patch },
                            stage,
                            rank,
                            step: u64::from(mstep),
                        },
                    });
                }
                Event::MsgDelivered { tag, .. } if *tag < sw_mpi::APP_TAG_LIMIT => {
                    let (mstep, stage, src_patch, face) =
                        decode_ghost_tag(*tag, n_stages, n_patches);
                    // The unpack fills the ghost layer of the neighbor the
                    // slab left through.
                    match level.neighbor(src_patch, face) {
                        Some(dst_patch) => spans.push(AccessSpan {
                            rank,
                            start: i,
                            end: i,
                            resource: res(
                                u64::from(mstep),
                                dst_patch,
                                in_label(stage),
                                RegionClass::Ghost,
                            ),
                            kind: AccessKind::Write,
                            what: Access {
                                op: AccessOp::Recv {
                                    dst: dst_patch,
                                    src: src_patch,
                                },
                                stage,
                                rank,
                                step: u64::from(mstep),
                            },
                        }),
                        None => errors.push(format!(
                            "rank {rank}: delivered ghost tag {tag} names patch {src_patch} \
                             face {face:?} with no neighbor"
                        )),
                    }
                }
                _ => {}
            }
        }
    }
    (spans, errors)
}

/// Run the full dynamic pass over a trace snapshot: rebuild
/// happens-before, extract accesses, check conflicts, and verify the
/// observed message edges against the compiled `plans` (the differential
/// contract). `n_stages` is the application's pipeline depth.
pub fn race_check(
    snapshot: &[Vec<EventRecord>],
    level: &Level,
    plans: &[RankPlan],
    n_stages: usize,
) -> RaceCheckReport {
    let hb = trace_hb(snapshot);
    let (spans, mut errors) = access_spans(snapshot, level, n_stages);
    let lanes: Vec<Vec<Lane>> = snapshot
        .iter()
        .map(|b| b.iter().map(|r| r.lane).collect())
        .collect();
    let race = hb.check(&spans, &lanes);

    // Differential contract: every honored message edge must be a channel
    // the plan compiler emitted.
    let mut tag_of: BTreeMap<u64, u64> = BTreeMap::new();
    for buf in snapshot {
        for rec in buf {
            if let Event::MsgPosted { msg, tag, .. } = &rec.event {
                tag_of.insert(*msg, *tag);
            }
        }
    }
    let mut unmatched = Vec::new();
    for &(msg, src, dst) in &hb.msg_edges {
        let Some(&tag) = tag_of.get(&msg) else {
            // A delivery whose post was never seen is already a
            // structural error from the happens-before pass.
            continue;
        };
        if tag >= sw_mpi::APP_TAG_LIMIT {
            unmatched.push(format!(
                "msg {msg} (r{src}->r{dst}): control-plane tag {tag} observed as an \
                 application message"
            ));
            continue;
        }
        let (step, stage, src_patch, face) = decode_ghost_tag(tag, n_stages, level.n_patches());
        let implied = stage < n_stages
            && src < plans.len()
            && plans[src]
                .sends
                .iter()
                .any(|s| s.src_patch == src_patch && s.face == face && s.dst_rank == dst);
        if !implied {
            unmatched.push(format!(
                "msg {msg} (r{src}->r{dst}, step {step}, stage {stage}, p{src_patch} \
                 {face:?}): no compiled GhostSend implies this edge"
            ));
        }
    }
    errors.extend(hb.errors.iter().cloned());
    RaceCheckReport {
        hb_events: hb.n_events(),
        hb_threads: hb.n_threads(),
        msg_edges: hb.msg_edges.len(),
        reduce_edges: hb.reduce_edges,
        structural_errors: errors,
        unmatched_edges: unmatched,
        race,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::iv;
    use crate::lb::LoadBalancer;
    use crate::task::plan::{build_rank_plans, ghost_tag};

    fn rec(lane: Lane, event: Event) -> EventRecord {
        EventRecord {
            at_ps: 0,
            wall_ns: None,
            lane,
            event,
        }
    }

    fn level2() -> Level {
        // Two patches side by side, one per rank under Block.
        Level::new(iv(8, 8, 8), iv(2, 1, 1))
    }

    fn plans2(level: &Level) -> Vec<RankPlan> {
        let a = LoadBalancer::Block.assign(level, 2);
        build_rank_plans(level, &a, 2, 1)
    }

    /// A well-formed two-rank step: rank 0 preps, sends its ghost, runs its
    /// kernel; rank 1 receives, preps, runs its kernel.
    fn clean_snapshot(level: &Level) -> Vec<Vec<EventRecord>> {
        let n = level.n_patches();
        let plans = plans2(level);
        let s0 = &plans[0].sends[0];
        let tag = ghost_tag(0, 0, 1, n, s0.src_patch, s0.face);
        vec![
            vec![
                rec(Lane::Mpe, Event::TaskStart { patch: 0, stage: 0 }),
                rec(Lane::Mpe, Event::TaskEnd { patch: 0, stage: 0 }),
                rec(
                    Lane::Mpe,
                    Event::MsgPosted {
                        msg: 1,
                        peer: 1,
                        tag,
                        bytes: 512,
                        eager: true,
                    },
                ),
                rec(
                    Lane::Cpe(0),
                    Event::OffloadStart {
                        patch: 0,
                        token: 11,
                    },
                ),
                rec(
                    Lane::Cpe(0),
                    Event::OffloadDone {
                        patch: 0,
                        token: 11,
                    },
                ),
            ],
            vec![
                rec(
                    Lane::Mpe,
                    Event::MsgDelivered {
                        msg: 1,
                        peer: 0,
                        tag,
                        bytes: 512,
                    },
                ),
                rec(Lane::Mpe, Event::TaskStart { patch: 1, stage: 0 }),
                rec(Lane::Mpe, Event::TaskEnd { patch: 1, stage: 0 }),
                rec(
                    Lane::Cpe(0),
                    Event::OffloadStart {
                        patch: 1,
                        token: 12,
                    },
                ),
                rec(
                    Lane::Cpe(0),
                    Event::OffloadDone {
                        patch: 1,
                        token: 12,
                    },
                ),
            ],
        ]
    }

    #[test]
    fn clean_trace_passes_every_check() {
        let level = level2();
        let snap = clean_snapshot(&level);
        let plans = plans2(&level);
        let rep = race_check(&snap, &level, &plans, 1);
        assert!(rep.is_clean(), "{}", rep.summary());
        assert_eq!(rep.msg_edges, 1);
        assert!(rep.race.accesses > 0);
        assert!(rep.race.pairs_checked > 0, "{}", rep.summary());
    }

    #[test]
    fn spans_attribute_kernel_stage_and_step() {
        let level = level2();
        let snap = clean_snapshot(&level);
        let (spans, errors) = access_spans(&snap, &level, 1);
        assert!(errors.is_empty(), "{errors:?}");
        // Per rank: 1 prep write + 3 kernel accesses; plus the post read
        // on rank 0 and the delivery write on rank 1.
        assert_eq!(spans.len(), 2 * 4 + 2);
        let find = |what: &str| spans.iter().find(|s| s.what.to_string() == what);
        assert!(find("send(p0,s0)@r0 step 0").is_some());
        // The delivery writes the same resource the receiver's kernel
        // reads as its ghost input.
        let recv = find("recv(p1<-p0,s0)@r1 step 0").unwrap();
        let kin = find("kernel(p1,s0,in-ghost)@r1 step 0").unwrap();
        assert_eq!(recv.resource, kin.resource);
    }

    #[test]
    fn message_edge_not_in_the_plans_fails_the_differential() {
        let level = level2();
        let mut snap = clean_snapshot(&level);
        let plans = plans2(&level);
        // Re-tag the message as a channel the plans never compiled:
        // patch 1 sending through its own +x face (a boundary).
        let bogus = ghost_tag(0, 0, 1, level.n_patches(), 1, plans[0].sends[0].face);
        for buf in &mut snap {
            for r in buf.iter_mut() {
                match &mut r.event {
                    Event::MsgPosted { tag, .. } | Event::MsgDelivered { tag, .. } => *tag = bogus,
                    _ => {}
                }
            }
        }
        let rep = race_check(&snap, &level, &plans, 1);
        assert!(!rep.is_clean());
        assert_eq!(rep.unmatched_edges.len(), 1, "{:?}", rep.unmatched_edges);
        assert!(rep.unmatched_edges[0].contains("no compiled GhostSend"));
    }

    #[test]
    fn dropped_delivery_makes_the_ghost_write_race_the_kernel_read() {
        let level = level2();
        let mut snap = clean_snapshot(&level);
        let plans = plans2(&level);
        // Move rank 1's delivery inside the kernel span (between
        // OffloadStart and OffloadDone): the ghost write is no longer
        // ordered against the kernel's ghost read in either direction.
        let d = snap[1].remove(0);
        snap[1].insert(3, d);
        let rep = race_check(&snap, &level, &plans, 1);
        assert!(
            !rep.race.races.is_empty(),
            "a ghost write inside the kernel span must race: {}",
            rep.summary()
        );
    }

    #[test]
    fn control_plane_tags_are_ignored_by_the_mapper() {
        let level = level2();
        let snap = vec![vec![rec(
            Lane::Mpe,
            Event::MsgPosted {
                msg: 9,
                peer: 1,
                tag: sw_mpi::APP_TAG_LIMIT + 3,
                bytes: 64,
                eager: true,
            },
        )]];
        let (spans, errors) = access_spans(&snap, &level, 1);
        assert!(spans.is_empty());
        assert!(errors.is_empty());
    }
}
