//! The load balancer: assigning patches to ranks.
//!
//! The MPE task scheduler "distributes tasks among different computing nodes
//! with the help from the load balancer" (paper §V-C step 2). Uintah proper
//! offers cost-model and space-filling-curve balancers; the policies here
//! cover the evaluation's needs (equally-sized patches, power-of-two rank
//! counts) plus a Morton-order balancer for the locality ablation.

use crate::grid::{IntVec, Level};

/// Patch-to-rank assignment policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadBalancer {
    /// Contiguous blocks of patch ids (layout order). The default; with the
    /// paper's equally-sized patches and power-of-two CG counts this gives
    /// perfect balance.
    Block,
    /// Patch id modulo rank count.
    RoundRobin,
    /// Sort patches along a Morton (Z-order) curve, then cut into contiguous
    /// blocks — fewer remote faces per rank than Block for many layouts.
    Morton,
    /// Sort patches along a 3-D Hilbert curve, then cut into contiguous
    /// blocks. Hilbert orderings have no Z-order jumps, so consecutive
    /// patches are always face-adjacent — the space-filling-curve balancer
    /// real Uintah uses.
    Hilbert,
}

impl LoadBalancer {
    /// Every policy.
    pub const ALL: [LoadBalancer; 4] = [
        LoadBalancer::Block,
        LoadBalancer::RoundRobin,
        LoadBalancer::Morton,
        LoadBalancer::Hilbert,
    ];

    /// The policy's name on the canonical line and in job specs.
    pub fn name(self) -> &'static str {
        match self {
            LoadBalancer::Block => "block",
            LoadBalancer::RoundRobin => "rr",
            LoadBalancer::Morton => "morton",
            LoadBalancer::Hilbert => "hilbert",
        }
    }

    /// Inverse of [`LoadBalancer::name`].
    pub fn from_name(name: &str) -> Option<LoadBalancer> {
        LoadBalancer::ALL.into_iter().find(|lb| lb.name() == name)
    }

    /// Compute `patch id -> rank` for `n_ranks`.
    pub fn assign(&self, level: &Level, n_ranks: usize) -> Vec<usize> {
        assert!(n_ranks >= 1);
        let n = level.n_patches();
        assert!(
            n_ranks <= n,
            "more ranks ({n_ranks}) than patches ({n}): idle CGs are not modeled"
        );
        match self {
            LoadBalancer::Block => block_cut((0..n).collect(), n_ranks),
            LoadBalancer::RoundRobin => (0..n).map(|p| p % n_ranks).collect(),
            LoadBalancer::Morton => Self::curve_cut(level, n_ranks, morton),
            LoadBalancer::Hilbert => Self::curve_cut(level, n_ranks, hilbert),
        }
    }

    /// Order patches by a space-filling-curve key, then cut contiguously.
    fn curve_cut(level: &Level, n_ranks: usize, key: impl Fn(IntVec) -> u64) -> Vec<usize> {
        let n = level.n_patches();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&p| key(level.patch(p).index));
        let ranks_in_order = block_cut(order.clone(), n_ranks);
        let mut out = vec![0; n];
        for (pos, &p) in order.iter().enumerate() {
            out[p] = ranks_in_order[pos];
        }
        out
    }

    /// Patches owned by `rank` under this assignment, ascending id.
    pub fn local_patches(assignment: &[usize], rank: usize) -> Vec<usize> {
        assignment
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == rank)
            .map(|(p, _)| p)
            .collect()
    }
}

/// Cut an ordered patch list into `n_ranks` contiguous chunks balanced to
/// within one patch; returns rank per *position* in the given order.
fn block_cut(order: Vec<usize>, n_ranks: usize) -> Vec<usize> {
    let n = order.len();
    let base = n / n_ranks;
    let extra = n % n_ranks;
    let mut out = Vec::with_capacity(n);
    for r in 0..n_ranks {
        let take = base + usize::from(r < extra);
        out.extend(std::iter::repeat_n(r, take));
    }
    debug_assert_eq!(out.len(), n);
    out
}

/// Measurement-driven assignment: longest-processing-time (LPT) greedy over
/// measured per-patch costs and relative CG speeds. Used when the scheduler
/// recompiles the task graph at a rebalance boundary (paper §V-C step 4).
///
/// Returns `patch id -> rank`, minimizing (greedily) the maximum of
/// `sum(assigned cost) / speed` over ranks. Deterministic: ties break by
/// patch id and rank id.
pub fn lpt_assign(
    costs: &std::collections::BTreeMap<usize, sw_sim::SimDur>,
    speeds: &[f64],
) -> Vec<usize> {
    let n_ranks = speeds.len();
    assert!(n_ranks >= 1);
    let mut patches: Vec<(usize, sw_sim::SimDur)> = costs.iter().map(|(&p, &c)| (p, c)).collect();
    // Longest first; ties by ascending patch id.
    patches.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut load = vec![0.0f64; n_ranks];
    let mut out = vec![0usize; costs.len()];
    for (p, c) in patches {
        // Least effective load; ties by rank id.
        let r = (0..n_ranks)
            .min_by(|&a, &b| {
                (load[a] / speeds[a])
                    .partial_cmp(&(load[b] / speeds[b]))
                    .unwrap()
                    .then(a.cmp(&b))
            })
            .unwrap();
        load[r] += c.as_secs_f64();
        out[p] = r;
    }
    out
}

/// 3-D Hilbert curve index of a point with coordinates below 2^`ORDER`.
///
/// Skilling's transpose algorithm ("Programming the Hilbert curve",
/// AIP Conf. Proc. 707, 2004): transform the axes into the "transpose"
/// representation of the Hilbert index, then interleave its bits. The
/// resulting order visits face-adjacent cells consecutively (verified by
/// test), which is what makes contiguous cuts communication-light.
fn hilbert(p: IntVec) -> u64 {
    const ORDER: u32 = 10; // up to 1024 patches per axis
    let mut x = [p.x as u64, p.y as u64, p.z as u64];
    debug_assert!(x.iter().all(|&v| v < (1 << ORDER)));
    // Inverse undo of the Hilbert transform (Skilling, AxestoTranspose).
    let mut q: u64 = 1 << (ORDER - 1);
    while q > 1 {
        let pmask = q - 1;
        for i in 0..3 {
            if x[i] & q != 0 {
                x[0] ^= pmask; // invert low bits of x
            } else {
                let t = (x[0] ^ x[i]) & pmask; // swap low bits with x[i]
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..3 {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u64;
    let mut q: u64 = 1 << (ORDER - 1);
    while q > 1 {
        if x[2] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in &mut x {
        *xi ^= t;
    }
    // Interleave the transpose bits, x[0]'s bit most significant per plane.
    let mut index = 0u64;
    for b in (0..ORDER).rev() {
        for xi in &x {
            index = (index << 1) | ((xi >> b) & 1);
        }
    }
    index
}

/// Interleave the low 21 bits of each component into a Morton key.
fn morton(p: IntVec) -> u64 {
    fn spread(mut v: u64) -> u64 {
        v &= (1 << 21) - 1;
        v = (v | (v << 32)) & 0x1f00000000ffff;
        v = (v | (v << 16)) & 0x1f0000ff0000ff;
        v = (v | (v << 8)) & 0x100f00f00f00f00f;
        v = (v | (v << 4)) & 0x10c30c30c30c30c3;
        v = (v | (v << 2)) & 0x1249249249249249;
        v
    }
    spread(p.x as u64) | (spread(p.y as u64) << 1) | (spread(p.z as u64) << 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::iv;

    fn level() -> Level {
        Level::new(iv(16, 16, 512), iv(8, 8, 2))
    }

    #[test]
    fn block_is_balanced_and_contiguous() {
        let l = level();
        for n_ranks in [1, 2, 4, 8, 16, 32, 64, 128] {
            let a = LoadBalancer::Block.assign(&l, n_ranks);
            assert_eq!(a.len(), 128);
            let per = 128 / n_ranks;
            for (p, &r) in a.iter().enumerate() {
                assert_eq!(r, p / per);
            }
        }
    }

    #[test]
    fn uneven_counts_balance_within_one() {
        let l = level();
        for lb in [
            LoadBalancer::Block,
            LoadBalancer::RoundRobin,
            LoadBalancer::Morton,
            LoadBalancer::Hilbert,
        ] {
            let a = lb.assign(&l, 3);
            let mut counts = [0usize; 3];
            for &r in &a {
                counts[r] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), 128);
            assert!(
                counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1,
                "{lb:?}"
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for lb in LoadBalancer::ALL {
            assert_eq!(LoadBalancer::from_name(lb.name()), Some(lb));
        }
        assert_eq!(LoadBalancer::from_name("BLOCK"), None);
    }

    #[test]
    fn round_robin_cycles() {
        let a = LoadBalancer::RoundRobin.assign(&level(), 4);
        assert_eq!(&a[..8], &[0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn morton_covers_all_ranks() {
        let a = LoadBalancer::Morton.assign(&level(), 16);
        let mut counts = [0usize; 16];
        for &r in &a {
            counts[r] += 1;
        }
        assert!(counts.iter().all(|&c| c == 8));
    }

    #[test]
    fn morton_improves_surface_locality_over_round_robin() {
        // Count remote faces (patch faces whose neighbor is on another rank).
        let l = level();
        let remote_faces = |a: &[usize]| -> usize {
            use crate::grid::region::FACES;
            let mut n = 0;
            for p in 0..l.n_patches() {
                for f in FACES {
                    if let Some(q) = l.neighbor(p, f) {
                        if a[p] != a[q] {
                            n += 1;
                        }
                    }
                }
            }
            n
        };
        let m = remote_faces(&LoadBalancer::Morton.assign(&l, 16));
        let rr = remote_faces(&LoadBalancer::RoundRobin.assign(&l, 16));
        assert!(m < rr, "morton {m} >= round-robin {rr}");
    }

    #[test]
    fn local_patches_inverts_assignment() {
        let l = level();
        let a = LoadBalancer::Block.assign(&l, 8);
        let mine = LoadBalancer::local_patches(&a, 3);
        assert_eq!(mine.len(), 16);
        assert!(mine.iter().all(|&p| a[p] == 3));
        assert!(mine.windows(2).all(|w| w[0] < w[1]), "ascending ids");
    }

    #[test]
    #[should_panic(expected = "more ranks")]
    fn too_many_ranks_panics() {
        LoadBalancer::Block.assign(&level(), 500);
    }

    #[test]
    fn hilbert_key_visits_every_cell_once_and_adjacently() {
        // The keys over a cube are a permutation AND consecutive cells in
        // key order are face neighbors — the defining Hilbert property.
        let mut by_key = std::collections::BTreeMap::new();
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    assert!(
                        by_key.insert(hilbert(iv(x, y, z)), iv(x, y, z)).is_none(),
                        "dup at {x},{y},{z}"
                    );
                }
            }
        }
        assert_eq!(by_key.len(), 512);
        let cells: Vec<_> = by_key.values().collect();
        for w in cells.windows(2) {
            let d = (w[0].x - w[1].x).abs() + (w[0].y - w[1].y).abs() + (w[0].z - w[1].z).abs();
            assert_eq!(d, 1, "jump between {} and {}", w[0], w[1]);
        }
    }

    #[test]
    fn hilbert_locality_beats_round_robin() {
        let l = level();
        let remote_faces = |a: &[usize]| -> usize {
            use crate::grid::region::FACES;
            let mut n = 0;
            for p in 0..l.n_patches() {
                for f in FACES {
                    if let Some(q) = l.neighbor(p, f) {
                        if a[p] != a[q] {
                            n += 1;
                        }
                    }
                }
            }
            n
        };
        let h = remote_faces(&LoadBalancer::Hilbert.assign(&l, 16));
        let rr = remote_faces(&LoadBalancer::RoundRobin.assign(&l, 16));
        assert!(h < rr, "hilbert {h} >= round-robin {rr}");
    }

    #[test]
    fn lpt_moves_work_off_the_slow_rank() {
        use sw_sim::SimDur;
        // 8 equal patches, rank 1 at half speed: it must get ~1/3 of them.
        let costs: std::collections::BTreeMap<usize, SimDur> =
            (0..8).map(|p| (p, SimDur(100))).collect();
        let a = lpt_assign(&costs, &[1.0, 0.5]);
        let slow = a.iter().filter(|&&r| r == 1).count();
        assert!(slow <= 3, "slow rank got {slow} of 8");
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn lpt_balances_skewed_costs() {
        use sw_sim::SimDur;
        // One huge patch plus small ones: the huge one gets a rank largely
        // to itself.
        let mut costs = std::collections::BTreeMap::new();
        costs.insert(0usize, SimDur(1000));
        for p in 1..7 {
            costs.insert(p, SimDur(200));
        }
        let a = lpt_assign(&costs, &[1.0, 1.0]);
        let big_rank = a[0];
        let load: u64 = costs
            .iter()
            .filter(|(&p, _)| a[p] == big_rank)
            .map(|(_, c)| c.0)
            .sum();
        let other: u64 = costs
            .iter()
            .filter(|(&p, _)| a[p] != big_rank)
            .map(|(_, c)| c.0)
            .sum();
        assert!(
            (load as i64 - other as i64).abs() <= 200,
            "{load} vs {other}"
        );
    }

    #[test]
    fn ragged_layouts_balance_within_one_for_every_policy() {
        // AMR regrids hand the balancer whatever window the flags produced:
        // prime rank counts over prime, lopsided layouts. Every policy must
        // still use all ranks and balance to within one patch.
        for (layout, n_patches) in [(iv(3, 5, 7), 105usize), (iv(1, 1, 9), 9)] {
            let l = Level::new(iv(4, 4, 4), layout);
            for lb in [
                LoadBalancer::Block,
                LoadBalancer::Morton,
                LoadBalancer::Hilbert,
            ] {
                for n_ranks in [3usize, 5, 7] {
                    let a = lb.assign(&l, n_ranks);
                    assert_eq!(a.len(), n_patches);
                    let mut counts = vec![0usize; n_ranks];
                    for &r in &a {
                        assert!(r < n_ranks, "{lb:?} emitted rank {r} of {n_ranks}");
                        counts[r] += 1;
                    }
                    assert!(
                        counts.iter().all(|&c| c > 0),
                        "{lb:?} left a rank idle on {layout} x {n_ranks}: {counts:?}"
                    );
                    assert!(
                        counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1,
                        "{lb:?} unbalanced on {layout} x {n_ranks}: {counts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn eleven_ranks_over_a_prime_box() {
        // 11 does not divide 105; the remainder patches spread one-per-rank
        // starting at rank 0, never stacked.
        let l = Level::new(iv(2, 2, 2), iv(3, 5, 7));
        for lb in [
            LoadBalancer::Block,
            LoadBalancer::Morton,
            LoadBalancer::Hilbert,
        ] {
            let a = lb.assign(&l, 11);
            let mut counts = vec![0usize; 11];
            for &r in &a {
                counts[r] += 1;
            }
            // 105 = 9 * 11 + 6: six ranks get 10, five get 9.
            let tens = counts.iter().filter(|&&c| c == 10).count();
            let nines = counts.iter().filter(|&&c| c == 9).count();
            assert_eq!((tens, nines), (6, 5), "{lb:?}: {counts:?}");
        }
    }

    #[test]
    fn ragged_assignments_are_deterministic() {
        // Same level, same policy, fresh Level object: identical map. The
        // regrid path leans on this — recompiled plans must not depend on
        // which Level instance computed the assignment.
        for lb in [
            LoadBalancer::Block,
            LoadBalancer::Morton,
            LoadBalancer::Hilbert,
        ] {
            for n_ranks in [3usize, 5, 7, 11] {
                let a = lb.assign(&Level::new(iv(4, 4, 4), iv(3, 5, 7)), n_ranks);
                let b = lb.assign(&Level::new(iv(4, 4, 4), iv(3, 5, 7)), n_ranks);
                assert_eq!(a, b, "{lb:?} x {n_ranks}");
            }
        }
    }

    #[test]
    fn curve_cuts_keep_ranks_contiguous_along_the_curve() {
        // Walking the patches in curve order must visit ranks in
        // non-decreasing order — the property that makes contiguous cuts
        // communication-light — even when the cut is ragged.
        let l = Level::new(iv(2, 2, 2), iv(3, 5, 7));
        for (lb, key) in [
            (LoadBalancer::Morton, morton as fn(IntVec) -> u64),
            (LoadBalancer::Hilbert, hilbert as fn(IntVec) -> u64),
        ] {
            let a = lb.assign(&l, 7);
            let mut order: Vec<usize> = (0..l.n_patches()).collect();
            order.sort_by_key(|&p| key(l.patch(p).index));
            let along: Vec<usize> = order.iter().map(|&p| a[p]).collect();
            assert!(
                along.windows(2).all(|w| w[0] <= w[1]),
                "{lb:?} rank sequence not monotone along its curve"
            );
        }
    }

    #[test]
    fn lpt_is_deterministic() {
        use sw_sim::SimDur;
        let costs: std::collections::BTreeMap<usize, SimDur> = (0..20)
            .map(|p| (p, SimDur(50 + (p as u64 * 37) % 100)))
            .collect();
        let a = lpt_assign(&costs, &[1.0, 0.8, 1.2]);
        let b = lpt_assign(&costs, &[1.0, 0.8, 1.2]);
        assert_eq!(a, b);
    }
}
