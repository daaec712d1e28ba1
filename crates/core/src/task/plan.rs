//! Compiling the distributed task graph's communication plan.
//!
//! Each computing node builds its portion of the task graph on its own group
//! of patches (paper §II): which ghost faces arrive by MPI from remote
//! patches, which are copied from same-rank neighbors through the data
//! warehouse, and which lie on the physical boundary and are filled by the
//! boundary-condition code. The plan is compiled once and reused every
//! timestep, as Uintah's task graph is.

use std::collections::BTreeMap;

use crate::grid::region::{Face, FACES};
use crate::grid::{Level, PatchId, Region};
use crate::sim::controller::RunConfig;

/// A face slab this rank must send to a remote rank each step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GhostSend {
    /// Local patch owning the data.
    pub src_patch: PatchId,
    /// Receiving rank.
    pub dst_rank: usize,
    /// The sender-side face the slab leaves through.
    pub face: Face,
    /// Cells sent: `src_patch`'s interior slab at `face` (global coords).
    pub window: Region,
}

/// A face slab this rank receives from a remote rank each step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GhostRecv {
    /// Local patch whose ghost layer the data fills.
    pub dst_patch: PatchId,
    /// Sending rank.
    pub src_rank: usize,
    /// Remote patch owning the data.
    pub src_patch: PatchId,
    /// The receiver-side face the ghost slab sits behind.
    pub face: Face,
    /// Cells received: `dst_patch`'s ghost slab at `face` (global coords;
    /// identical to the sender's interior slab).
    pub window: Region,
}

/// A same-rank ghost copy through the data warehouse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalCopy {
    /// Neighbor patch the data is read from.
    pub src_patch: PatchId,
    /// Patch whose ghost layer is filled.
    pub dst_patch: PatchId,
    /// Cells copied (global coords).
    pub window: Region,
}

/// Per-patch preparation work the MPE performs before offloading the task.
#[derive(Clone, Debug, Default)]
pub struct PatchPrep {
    /// Ghost slabs copied from same-rank neighbors.
    pub local_copies: Vec<LocalCopy>,
    /// Boundary ghost slabs filled from the boundary conditions.
    pub bc_regions: Vec<Region>,
    /// How many remote ghost messages must arrive before the kernel is
    /// ready.
    pub n_remote: usize,
    /// This patch's outgoing messages: its (contiguous) slice of
    /// [`RankPlan::sends`].
    pub sends: std::ops::Range<usize>,
    /// The same-rank copies that read this patch, as `(dst_patch, index
    /// into that patch's local_copies)` in ascending `dst_patch` order —
    /// what a finished stage of this patch must feed.
    pub feeds: Vec<(PatchId, usize)>,
}

/// The compiled per-rank communication/preparation plan.
#[derive(Clone, Debug)]
pub struct RankPlan {
    /// This rank.
    pub rank: usize,
    /// Local patches, ascending id.
    pub patches: Vec<PatchId>,
    /// Outgoing ghost messages (one per remote face per step).
    pub sends: Vec<GhostSend>,
    /// Incoming ghost messages.
    pub recvs: Vec<GhostRecv>,
    /// Per-patch MPE preparation work.
    pub prep: BTreeMap<PatchId, PatchPrep>,
}

/// The MPI tag of the ghost message leaving `src_patch` through `face` for
/// stage `stage` of `step`. Unique per (step, stage, patch, face), so
/// receives match exactly even with one step of inter-rank skew and
/// multi-stage task graphs.
///
/// All products are **checked**: a pathological `steps × stages × patches`
/// combination panics here instead of wrapping and silently matching a
/// different face's message. The result is also proven to stay below
/// [`sw_mpi::APP_TAG_LIMIT`], so ghost tags can never wander into the MPI
/// layer's reserved control-plane namespace (where `isend` would reject
/// them anyway — this keeps the failure at the tag *scheme*, where it is
/// diagnosable).
pub fn ghost_tag(
    step: u32,
    stage: usize,
    n_stages: usize,
    n_patches: usize,
    src_patch: PatchId,
    face: Face,
) -> u64 {
    debug_assert!(stage < n_stages);
    let per_stage = (n_patches as u64).checked_mul(6);
    let tag = (step as u64)
        .checked_mul(n_stages as u64)
        .and_then(|s| s.checked_add(stage as u64))
        .and_then(|s| s.checked_mul(per_stage?))
        .and_then(|s| s.checked_add((src_patch as u64) * 6 + face.index() as u64))
        .filter(|&t| t < sw_mpi::APP_TAG_LIMIT);
    match tag {
        Some(t) => t,
        None => panic!(
            "ghost tag for step {step}, stage {stage}/{n_stages}, patch \
             {src_patch}/{n_patches} overflows the application tag namespace"
        ),
    }
}

/// Invert [`ghost_tag`]: recover `(step, stage, src_patch, face)` from a
/// wire tag. The dynamic race checker uses this to attribute a delivered
/// ghost message back to the variable and region it unpacks into, and the
/// static/dynamic differential check uses it to match observed message
/// edges against the compiled schedule model.
pub fn decode_ghost_tag(
    tag: u64,
    n_stages: usize,
    n_patches: usize,
) -> (u32, usize, PatchId, Face) {
    let face = FACES[(tag % 6) as usize];
    let src_patch = ((tag / 6) % n_patches as u64) as PatchId;
    let stage_major = tag / (6 * n_patches as u64);
    let stage = (stage_major % n_stages as u64) as usize;
    let step = (stage_major / n_stages as u64) as u32;
    (step, stage, src_patch, face)
}

/// Compile the plan for `rank` under the given patch assignment.
pub fn build_rank_plan(level: &Level, assignment: &[usize], rank: usize, ghost: i64) -> RankPlan {
    assert_eq!(assignment.len(), level.n_patches());
    let patches: Vec<PatchId> = (0..level.n_patches())
        .filter(|&p| assignment[p] == rank)
        .collect();
    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    let mut prep: BTreeMap<PatchId, PatchPrep> = BTreeMap::new();
    for &p in &patches {
        let region = level.patch(p).region;
        let entry = prep.entry(p).or_default();
        let first_send = sends.len();
        for face in FACES {
            match level.neighbor(p, face) {
                None => {
                    entry.bc_regions.push(region.face_ghost(face, ghost));
                }
                Some(n) if assignment[n] == rank => {
                    entry.local_copies.push(LocalCopy {
                        src_patch: n,
                        dst_patch: p,
                        window: region.face_ghost(face, ghost),
                    });
                }
                Some(n) => {
                    entry.n_remote += 1;
                    recvs.push(GhostRecv {
                        dst_patch: p,
                        src_rank: assignment[n],
                        src_patch: n,
                        face,
                        window: region.face_ghost(face, ghost),
                    });
                    // Symmetric send: our interior slab through this face.
                    sends.push(GhostSend {
                        src_patch: p,
                        dst_rank: assignment[n],
                        face,
                        window: region.face_interior(face, ghost),
                    });
                }
            }
        }
        entry.sends = first_send..sends.len();
    }
    // Index the local copies by the patch they read.
    let feeds: Vec<(PatchId, PatchId, usize)> = prep
        .iter()
        .flat_map(|(&dst, pp)| {
            let by_src = pp.local_copies.iter().enumerate();
            by_src.map(move |(k, lc)| (lc.src_patch, dst, k))
        })
        .collect();
    for (src, dst, k) in feeds {
        prep.get_mut(&src)
            .expect("a local copy reads a local patch")
            .feeds
            .push((dst, k));
    }
    RankPlan {
        rank,
        patches,
        sends,
        recvs,
        prep,
    }
}

/// The patch-to-rank assignment `cfg` runs `level` under: its
/// `assignment_override`, else its balancer's.
pub fn resolve_assignment(level: &Level, cfg: &RunConfig) -> Vec<usize> {
    match &cfg.assignment_override {
        Some(a) => a.as_ref().clone(),
        None => cfg.lb.assign(level, cfg.n_ranks),
    }
}

/// Compile every rank's plan (rank order) under `assignment` — with
/// [`resolve_assignment`], the compile step of a run.
pub fn build_rank_plans(
    level: &Level,
    assignment: &[usize],
    n_ranks: usize,
    ghost: i64,
) -> Vec<RankPlan> {
    (0..n_ranks)
        .map(|r| build_rank_plan(level, assignment, r, ghost))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::iv;
    use crate::lb::LoadBalancer;

    fn level() -> Level {
        Level::new(iv(8, 8, 8), iv(4, 4, 2)) // 32 patches
    }

    #[test]
    fn an_assignment_override_wins_over_the_balancer() {
        use std::sync::Arc;

        use sw_athread::{CpeTileKernel, Dims3, TileCostModel, TileCtx};

        use crate::schedule::variant::{ExecMode, Variant};
        use crate::sim::controller::Simulation;
        use crate::task::app::Application;
        use crate::var::CcVar;

        /// Construction only reads the ghost width; nothing here runs.
        struct Idle;
        impl CpeTileKernel for Idle {
            fn ghost(&self) -> usize {
                1
            }
            fn compute(&self, _ctx: &mut TileCtx<'_>) {}
        }
        impl TileCostModel for Idle {
            fn ghost(&self) -> usize {
                1
            }
            fn flops(&self, _d: Dims3) -> u64 {
                0
            }
            fn exp_flops(&self, _d: Dims3) -> u64 {
                0
            }
            fn exp_calls(&self, _d: Dims3) -> u64 {
                0
            }
        }
        impl Application for Idle {
            fn name(&self) -> &str {
                "idle"
            }
            fn ghost(&self) -> i64 {
                1
            }
            fn cost(&self) -> &dyn TileCostModel {
                self
            }
            fn kernel(&self, _simd: bool) -> &dyn CpeTileKernel {
                self
            }
            fn bc_flops_per_cell(&self) -> u64 {
                0
            }
            fn stable_dt(&self, _level: &Level) -> f64 {
                1.0
            }
            fn init(&self, _l: &Level, _region: &Region, _var: &mut CcVar) {}
            fn fill_boundary(&self, _l: &Level, _r: &Region, _v: &mut CcVar, _t: f64) {}
        }

        let l = level();
        let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, 4);
        assert_eq!(
            resolve_assignment(&l, &cfg),
            LoadBalancer::Block.assign(&l, 4)
        );
        let pinned: Vec<usize> = (0..l.n_patches()).map(|p| (p * 7 + 3) % 4).collect();
        assert_ne!(pinned, LoadBalancer::Block.assign(&l, 4));
        cfg.lb = LoadBalancer::Hilbert;
        cfg.assignment_override = Some(Arc::new(pinned.clone()));
        assert_eq!(resolve_assignment(&l, &cfg), pinned);
        let plans = build_rank_plans(&l, &pinned, 4, 1);
        for (r, plan) in plans.iter().enumerate() {
            assert_eq!(plan.rank, r);
            assert!(plan.patches.iter().all(|&p| pinned[p] == r));
        }
        let sim = Simulation::new(l, Arc::new(Idle), cfg);
        assert_eq!(sim.assignment(), pinned.as_slice());
    }

    #[test]
    fn single_rank_has_no_messages() {
        let l = level();
        let a = LoadBalancer::Block.assign(&l, 1);
        let plan = build_rank_plan(&l, &a, 0, 1);
        assert_eq!(plan.patches.len(), 32);
        assert!(plan.sends.is_empty());
        assert!(plan.recvs.is_empty());
        // Every interior face is a local copy; every boundary face a BC fill.
        let total_local: usize = plan.prep.values().map(|p| p.local_copies.len()).sum();
        let total_bc: usize = plan.prep.values().map(|p| p.bc_regions.len()).sum();
        assert_eq!(total_local + total_bc, 32 * 6);
        assert!(plan.prep.values().all(|p| p.n_remote == 0));
    }

    #[test]
    fn ghost_tag_decode_roundtrips() {
        let (n_stages, n_patches) = (3, 32);
        for step in [0u32, 1, 7] {
            for stage in 0..n_stages {
                for patch in [0usize, 5, 31] {
                    for face in FACES {
                        let tag = ghost_tag(step, stage, n_stages, n_patches, patch, face);
                        assert_eq!(
                            decode_ghost_tag(tag, n_stages, n_patches),
                            (step, stage, patch, face),
                            "tag {tag}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sends_and_recvs_pair_up_across_ranks() {
        let l = level();
        let a = LoadBalancer::Block.assign(&l, 4);
        let plans: Vec<_> = (0..4).map(|r| build_rank_plan(&l, &a, r, 1)).collect();
        let total_sends: usize = plans.iter().map(|p| p.sends.len()).sum();
        let total_recvs: usize = plans.iter().map(|p| p.recvs.len()).sum();
        assert_eq!(total_sends, total_recvs);
        assert!(total_sends > 0);
        // Every recv has a matching send: same window, same tag, inverse
        // direction.
        for plan in &plans {
            for rv in &plan.recvs {
                let sender = &plans[rv.src_rank];
                let matching: Vec<_> = sender
                    .sends
                    .iter()
                    .filter(|s| {
                        s.src_patch == rv.src_patch
                            && s.dst_rank == plan.rank
                            && s.window == rv.window
                    })
                    .collect();
                assert_eq!(matching.len(), 1, "recv {rv:?}");
                // Tags agree: receiver derives the tag from the sender's
                // face, which is the opposite of its own.
                let s = matching[0];
                assert_eq!(
                    ghost_tag(3, 0, 1, l.n_patches(), s.src_patch, s.face),
                    ghost_tag(3, 0, 1, l.n_patches(), rv.src_patch, rv.face.opposite())
                );
            }
        }
    }

    #[test]
    fn remote_counts_gate_each_patch() {
        let l = level();
        let a = LoadBalancer::Block.assign(&l, 2); // split across z
        let plan = build_rank_plan(&l, &a, 0, 1);
        for (&p, prep) in &plan.prep {
            let n_recvs = plan.recvs.iter().filter(|r| r.dst_patch == p).count();
            assert_eq!(prep.n_remote, n_recvs);
            assert_eq!(
                prep.local_copies.len() + prep.bc_regions.len() + prep.n_remote,
                6
            );
        }
    }

    #[test]
    fn per_patch_indexes_agree_with_a_scan_of_the_plan() {
        let l = level();
        let a = LoadBalancer::Block.assign(&l, 4);
        for rank in 0..4 {
            let plan = build_rank_plan(&l, &a, rank, 1);
            for (&p, prep) in &plan.prep {
                let scanned: Vec<usize> = (0..plan.sends.len())
                    .filter(|&i| plan.sends[i].src_patch == p)
                    .collect();
                assert_eq!(prep.sends.clone().collect::<Vec<_>>(), scanned);
                let fed: Vec<(PatchId, usize)> = plan
                    .prep
                    .iter()
                    .flat_map(|(&dst, pp)| {
                        let by_src = pp.local_copies.iter().enumerate();
                        by_src.filter_map(move |(k, lc)| (lc.src_patch == p).then_some((dst, k)))
                    })
                    .collect();
                assert_eq!(prep.feeds, fed, "patch {p}");
            }
        }
    }

    #[test]
    fn tags_are_unique_per_step_stage_patch_face() {
        let l = level();
        let mut seen = std::collections::BTreeSet::new();
        for step in 0..3 {
            for stage in 0..3 {
                for p in 0..l.n_patches() {
                    for f in FACES {
                        assert!(seen.insert(ghost_tag(step, stage, 3, l.n_patches(), p, f)));
                    }
                }
            }
        }
    }

    #[test]
    fn ghost_tags_never_enter_the_reserved_control_plane_namespace() {
        // Collision regression (see sw-mpi): the reliable layer's control
        // traffic lives at tags >= APP_TAG_LIMIT. Even an absurdly long run
        // of the largest torture-scale graph stays strictly below it.
        let worst = ghost_tag(u32::MAX, 7, 8, 1 << 20, (1 << 20) - 1, FACES[5]);
        assert!(worst < sw_mpi::APP_TAG_LIMIT);
        // And a scheme that *would* overflow panics instead of wrapping
        // around into someone else's tag.
        let r = std::panic::catch_unwind(|| {
            ghost_tag(
                u32::MAX,
                usize::MAX - 1,
                usize::MAX,
                usize::MAX,
                0,
                FACES[0],
            )
        });
        assert!(r.is_err(), "overflowing tag arithmetic must not wrap");
    }

    #[test]
    fn window_sizes_match_face_geometry() {
        let l = Level::new(iv(16, 32, 512), iv(2, 2, 2));
        let a = LoadBalancer::Block.assign(&l, 8); // every patch its own rank
        let plan = build_rank_plan(&l, &a, 0, 1);
        for s in &plan.sends {
            let d = s.window.extent();
            let expect = match s.face.axis {
                0 => iv(1, 32, 512),
                1 => iv(16, 1, 512),
                _ => iv(16, 32, 1),
            };
            assert_eq!(d, expect, "face {:?}", s.face);
        }
        // 3 remote faces per corner patch in a 2x2x2 layout.
        assert_eq!(plan.sends.len(), 3);
        assert_eq!(plan.recvs.len(), 3);
        assert_eq!(plan.prep[&0].bc_regions.len(), 3);
    }
}
