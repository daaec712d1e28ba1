//! Tiling a patch for the per-CPE scratchpad, and assigning tiles to CPEs.
//!
//! When a kernel is scheduled on the CPEs, the patch is subdivided into
//! "tiles" like those in TiDA, sized so the kernel's working memory fits in
//! the 64 KB LDM; tiles are then assigned evenly to the CPEs by naturally
//! partitioning the blocks in the z dimension (paper §V-B, §V-D).

/// Extent of a 3-D box of cells, x-fastest.
pub type Dims3 = (usize, usize, usize);

/// Number of cells in an extent.
#[inline]
pub fn cells(d: Dims3) -> u64 {
    d.0 as u64 * d.1 as u64 * d.2 as u64
}

/// Largest per-axis cell extent the tile machinery accepts, *including*
/// ghost layers. With every axis below 2^20 the signed index arithmetic of
/// `TileCtx::in_at` (`x as i64 + g + dx`) and the global-cell sums of
/// `TileCtx::global_cell` stay far from `i64` overflow, and any pairwise
/// product of two axes fits comfortably in `usize`.
pub const MAX_AXIS_CELLS: usize = 1 << 20;

/// Largest ghosted volume (in cells) accepted. `idx3` computes
/// `x + d0*(y + d1*z)` in `usize`; volumes below 2^40 keep that (and the
/// `* 8`-byte staging sizes) orders of magnitude away from wraparound.
pub const MAX_VOLUME_CELLS: u64 = 1 << 40;

/// Typed rejection of a grid/tile geometry whose flat indexing could wrap.
///
/// Before this check existed, the guards in [`crate::idx3`] and
/// `TileCtx::in_at` were `debug_assert!`-only: a release build handed a
/// degenerate extent would wrap its index arithmetic instead of failing.
/// Constructors now reject such geometries up front with this error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeomError {
    /// An axis extent is zero — the box is empty.
    EmptyAxis {
        /// Axis index (0 = x).
        axis: usize,
        /// The offending (un-ghosted) extent.
        dims: Dims3,
    },
    /// An axis extent, including ghosts, exceeds [`MAX_AXIS_CELLS`].
    AxisTooLarge {
        /// Axis index (0 = x).
        axis: usize,
        /// Ghosted extent of that axis.
        extent: u64,
        /// Ghost layers included in `extent`.
        ghost: usize,
    },
    /// The ghosted volume exceeds [`MAX_VOLUME_CELLS`] (or overflows
    /// entirely): flat indices and byte sizes could wrap.
    VolumeTooLarge {
        /// The (un-ghosted) extent.
        dims: Dims3,
        /// Ghost layers per side.
        ghost: usize,
    },
}

impl core::fmt::Display for GeomError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            GeomError::EmptyAxis { axis, dims } => {
                write!(f, "axis {axis} of extent {dims:?} is empty")
            }
            GeomError::AxisTooLarge {
                axis,
                extent,
                ghost,
            } => write!(
                f,
                "axis {axis} spans {extent} cells with {ghost} ghost layer(s), \
                 above the safe bound {MAX_AXIS_CELLS} — index arithmetic \
                 could wrap"
            ),
            GeomError::VolumeTooLarge { dims, ghost } => write!(
                f,
                "ghosted volume of {dims:?} with {ghost} ghost layer(s) \
                 exceeds the safe bound {MAX_VOLUME_CELLS} cells — flat \
                 indices could wrap"
            ),
        }
    }
}

impl std::error::Error for GeomError {}

/// Validate that a patch of `dims` cells with `ghost` ghost layers per side
/// can be tiled, staged, and indexed without any integer wraparound:
/// every axis is non-empty and, ghosted, stays below [`MAX_AXIS_CELLS`];
/// the ghosted volume stays below [`MAX_VOLUME_CELLS`].
///
/// `Level`/tile-plan constructors call this so the `debug_assert`-only
/// guards in the hot index path ([`crate::idx3`], `TileCtx::in_at`) are
/// backed by a release-mode rejection at construction time.
pub fn validate_patch_geometry(dims: Dims3, ghost: usize) -> Result<(), GeomError> {
    let axes = [dims.0, dims.1, dims.2];
    // Saturating on purpose: absurd inputs (usize::MAX ghosts) must land in
    // the rejection branch, not overflow the checker itself.
    let ghosted_axis = |d: usize| (d as u64).saturating_add((ghost as u64).saturating_mul(2));
    for (axis, &d) in axes.iter().enumerate() {
        if d == 0 {
            return Err(GeomError::EmptyAxis { axis, dims });
        }
        let ghosted = ghosted_axis(d);
        if ghosted > MAX_AXIS_CELLS as u64 {
            return Err(GeomError::AxisTooLarge {
                axis,
                extent: ghosted,
                ghost,
            });
        }
    }
    let ghosted_vol = axes
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(ghosted_axis(d)))
        .filter(|&v| v <= MAX_VOLUME_CELLS);
    if ghosted_vol.is_none() {
        return Err(GeomError::VolumeTooLarge { dims, ghost });
    }
    Ok(())
}

/// One tile of a patch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileDesc {
    /// Offset of the tile within the patch, in cells.
    pub origin: Dims3,
    /// Tile extent in cells (edge tiles may be ragged).
    pub dims: Dims3,
}

impl TileDesc {
    /// Cells in this tile.
    pub fn cells(&self) -> u64 {
        cells(self.dims)
    }

    /// Extent of the tile including `g` ghost layers on every side.
    pub fn ghosted_dims(&self, g: usize) -> Dims3 {
        (
            self.dims.0 + 2 * g,
            self.dims.1 + 2 * g,
            self.dims.2 + 2 * g,
        )
    }
}

/// Enumerate the tiles of a `patch`-sized box cut by `tile` (ragged at the
/// high edges), ordered z-slab-major (z outermost, then y, then x) so that a
/// contiguous split of the list is a z-partition.
pub fn tiles_of(patch: Dims3, tile: Dims3) -> Vec<TileDesc> {
    assert!(
        tile.0 >= 1 && tile.1 >= 1 && tile.2 >= 1,
        "degenerate tile {tile:?}"
    );
    let mut out = Vec::new();
    let mut z = 0;
    while z < patch.2 {
        let dz = tile.2.min(patch.2 - z);
        let mut y = 0;
        while y < patch.1 {
            let dy = tile.1.min(patch.1 - y);
            let mut x = 0;
            while x < patch.0 {
                let dx = tile.0.min(patch.0 - x);
                out.push(TileDesc {
                    origin: (x, y, z),
                    dims: (dx, dy, dz),
                });
                x += dx;
            }
            y += dy;
        }
        z += dz;
    }
    out
}

/// Assign tiles to `cpes` CPEs: contiguous chunks of the z-slab-major tile
/// list, sizes balanced to within one tile. With the paper's geometry
/// (z-tiles = CPEs) each CPE receives exactly one z-slab of tiles.
pub fn assign_tiles(tiles: &[TileDesc], cpes: usize) -> Vec<Vec<TileDesc>> {
    assert!(cpes >= 1);
    let n = tiles.len();
    let base = n / cpes;
    let extra = n % cpes;
    let mut out = Vec::with_capacity(cpes);
    let mut idx = 0;
    for c in 0..cpes {
        let take = base + usize::from(c < extra);
        out.push(tiles[idx..idx + take].to_vec());
        idx += take;
    }
    debug_assert_eq!(idx, n);
    out
}

/// Verify that an assignment of tiles to CPEs is an **exact partition** of
/// the patch: every cell covered exactly once, every tile in bounds.
///
/// This is the disjointness proof the parallel executor's writers rely on
/// (`tiles_of` output always satisfies it), and the same property
/// `sw-analyze` proves offline for compiled tile plans. The resilience
/// layer re-checks it *online* whenever it repartitions a patch over
/// surviving CPE slots after a blacklist, so a recovery path can never
/// silently compute a torn field — if the check fails the caller degrades
/// to serial MPE execution instead.
pub fn is_exact_partition(patch: Dims3, assignment: &[Vec<TileDesc>]) -> bool {
    // Bounds and cell count first: they reject most bad plans without a
    // cells-sized mask.
    let mut covered: u64 = 0;
    for t in assignment.iter().flatten() {
        if t.dims.0 > patch.0
            || t.origin.0 > patch.0 - t.dims.0
            || t.dims.1 > patch.1
            || t.origin.1 > patch.1 - t.dims.1
            || t.dims.2 > patch.2
            || t.origin.2 > patch.2 - t.dims.2
            || t.cells() == 0
        {
            return false;
        }
        covered += t.cells();
    }
    if covered != cells(patch) {
        return false;
    }
    // Equal cell count plus in-bounds still admits overlap; mark each cell.
    let mut seen = vec![false; patch.0 * patch.1 * patch.2];
    let plane = patch.0 * patch.1;
    for t in assignment.iter().flatten() {
        let row0 = t.origin.0 + patch.0 * t.origin.1 + plane * t.origin.2;
        for z in 0..t.dims.2 {
            let zbase = row0 + z * plane;
            for y in 0..t.dims.1 {
                let row = zbase + y * patch.0;
                for c in &mut seen[row..row + t.dims.0] {
                    if std::mem::replace(c, true) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Working-set model used to size tiles: bytes of LDM a kernel needs for a
/// tile of the given dims.
pub trait LdmFootprint {
    /// Ghost layers the kernel requires.
    fn ghost(&self) -> usize;
    /// Bytes of LDM working memory for a tile of `dims`.
    fn ldm_bytes(&self, dims: Dims3) -> usize;
}

/// Standard one-in/one-out footprint: a ghosted input copy plus an interior
/// output copy of `f64`s (the Burgers kernel's shape, paper §VI-A).
#[derive(Clone, Copy, Debug)]
pub struct InOutFootprint {
    /// Ghost layers of the stencil.
    pub ghost: usize,
}

impl LdmFootprint for InOutFootprint {
    fn ghost(&self) -> usize {
        self.ghost
    }
    fn ldm_bytes(&self, dims: Dims3) -> usize {
        let g = self.ghost;
        let ghosted = (dims.0 + 2 * g) * (dims.1 + 2 * g) * (dims.2 + 2 * g);
        let interior = dims.0 * dims.1 * dims.2;
        (ghosted + interior) * 8
    }
}

/// Choose the tile shape for a patch: among power-of-two candidate shapes
/// that divide the patch and fit the LDM, prefer shapes that produce at
/// least `target_tiles` tiles (so every CPE has work — the paper's 16x16x8
/// tile gives the smallest 16x16x512 patch exactly 64 z-slabs for the 64
/// CPEs), then maximize cells per tile, then minimize ghost overhead, then
/// minimize the z extent (more z-slabs), then maximize the x extent (longer
/// SIMD rows).
///
/// For the paper's Burgers working set and patch sizes this selects 16x16x8,
/// the shape chosen in §VI-A:
///
/// ```
/// use sw_athread::{choose_tile_shape, InOutFootprint};
///
/// let fp = InOutFootprint { ghost: 1 };
/// let tile = choose_tile_shape((16, 16, 512), &fp, 64 * 1024, 64).unwrap();
/// assert_eq!(tile, (16, 16, 8));
/// ```
pub fn choose_tile_shape(
    patch: Dims3,
    fp: &impl LdmFootprint,
    ldm_bytes: usize,
    target_tiles: usize,
) -> Option<Dims3> {
    let candidates = |dim: usize| -> Vec<usize> {
        let mut v = Vec::new();
        let mut c = 1;
        while c <= dim && c <= 256 {
            if dim.is_multiple_of(c) {
                v.push(c);
            }
            c *= 2;
        }
        v
    };
    // (enough-tiles, cells, -ghosted, -tz, tx): lexicographically maximized.
    type Key = (
        bool,
        u64,
        std::cmp::Reverse<usize>,
        std::cmp::Reverse<usize>,
        usize,
    );
    let mut best: Option<(Dims3, Key)> = None;
    let patch_cells = cells(patch);
    for &tx in &candidates(patch.0) {
        for &ty in &candidates(patch.1) {
            for &tz in &candidates(patch.2) {
                let dims = (tx, ty, tz);
                if fp.ldm_bytes(dims) > ldm_bytes {
                    continue;
                }
                let c = cells(dims);
                let n_tiles = patch_cells / c;
                let g = fp.ghost();
                let ghosted = (tx + 2 * g) * (ty + 2 * g) * (tz + 2 * g);
                let key: Key = (
                    n_tiles >= target_tiles as u64,
                    c,
                    std::cmp::Reverse(ghosted),
                    std::cmp::Reverse(tz),
                    tx,
                );
                if best.as_ref().is_none_or(|(_, bk)| key > *bk) {
                    best = Some((dims, key));
                }
            }
        }
    }
    best.map(|(d, _)| d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_patch_exactly() {
        let patch = (16, 16, 512);
        let tiles = tiles_of(patch, (16, 16, 8));
        assert_eq!(tiles.len(), 64);
        let total: u64 = tiles.iter().map(|t| t.cells()).sum();
        assert_eq!(total, cells(patch));
    }

    #[test]
    fn exact_partition_accepts_any_cpe_count() {
        let patch = (10, 10, 20);
        let tiles = tiles_of(patch, (4, 4, 4));
        // Repartitioning over surviving slots: any split is still exact.
        for cpes in [1usize, 3, 7, 27, 64] {
            let asg = assign_tiles(&tiles, cpes);
            assert!(is_exact_partition(patch, &asg), "cpes={cpes}");
        }
    }

    #[test]
    fn exact_partition_rejects_gaps_overlaps_and_oob() {
        let patch = (8, 8, 8);
        let tiles = tiles_of(patch, (4, 4, 4));
        let mut asg = assign_tiles(&tiles, 2);
        // Gap: drop one tile.
        let dropped = asg[0].pop().unwrap();
        assert!(!is_exact_partition(patch, &asg));
        // Overlap: restore it twice.
        asg[0].push(dropped);
        asg[1].push(dropped);
        assert!(!is_exact_partition(patch, &asg));
        asg[1].pop();
        assert!(is_exact_partition(patch, &asg));
        // Out of bounds.
        asg[1].push(TileDesc {
            origin: (6, 6, 6),
            dims: (4, 4, 4),
        });
        assert!(!is_exact_partition(patch, &asg));
        // Empty tile.
        asg[1].pop();
        asg[1].push(TileDesc {
            origin: (0, 0, 0),
            dims: (4, 0, 4),
        });
        assert!(!is_exact_partition(patch, &asg));
    }

    #[test]
    fn exact_partition_catches_overlap_at_an_equal_cell_count() {
        let patch = (10, 10, 10);
        let tiles = tiles_of(patch, (4, 4, 4));
        let mut asg = assign_tiles(&tiles, 5);
        assert!(is_exact_partition(patch, &asg));
        // Same cell count, shifted tile: only the mask catches it.
        asg[1][0].origin = asg[0][0].origin;
        assert!(!is_exact_partition(patch, &asg));
        // A tile hanging off the far edge.
        let oob = vec![vec![TileDesc {
            origin: (8, 0, 0),
            dims: (4, 10, 10),
        }]];
        assert!(!is_exact_partition(patch, &oob));
    }

    #[test]
    fn ragged_edges() {
        let tiles = tiles_of((10, 10, 10), (4, 4, 4));
        // 3 x 3 x 3 tiles, edges of size 2.
        assert_eq!(tiles.len(), 27);
        let total: u64 = tiles.iter().map(|t| t.cells()).sum();
        assert_eq!(total, 1000);
        assert_eq!(tiles.last().unwrap().dims, (2, 2, 2));
        assert_eq!(tiles.last().unwrap().origin, (8, 8, 8));
    }

    #[test]
    fn z_slab_major_order() {
        let tiles = tiles_of((32, 32, 16), (16, 16, 8));
        // First four tiles are the z=0 slab.
        assert!(tiles[..4].iter().all(|t| t.origin.2 == 0));
        assert!(tiles[4..].iter().all(|t| t.origin.2 == 8));
    }

    #[test]
    fn paper_geometry_gives_one_slab_per_cpe() {
        // 128x128x512 patch, 16x16x8 tiles: 8*8*64 = 4096 tiles, 64 CPEs.
        let tiles = tiles_of((128, 128, 512), (16, 16, 8));
        let assign = assign_tiles(&tiles, 64);
        assert_eq!(assign.len(), 64);
        for (cpe, ts) in assign.iter().enumerate() {
            assert_eq!(ts.len(), 64);
            // Every tile of CPE i sits in z-slab i.
            assert!(ts.iter().all(|t| t.origin.2 == cpe * 8), "cpe {cpe}");
        }
    }

    #[test]
    fn assignment_is_balanced_within_one() {
        let tiles = tiles_of((16, 16, 80), (16, 16, 8)); // 10 tiles
        let assign = assign_tiles(&tiles, 4);
        let sizes: Vec<_> = assign.iter().map(|a| a.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
        // Deterministic: first chunks get the extras.
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn chooses_paper_tile_shape() {
        let fp = InOutFootprint { ghost: 1 };
        let shape = choose_tile_shape((16, 16, 512), &fp, 64 * 1024, 64).unwrap();
        assert_eq!(shape, (16, 16, 8), "paper §VI-A tile for Burgers");
        // Bigger patches keep the same choice.
        let shape = choose_tile_shape((128, 128, 512), &fp, 64 * 1024, 64).unwrap();
        assert_eq!(shape, (16, 16, 8));
    }

    #[test]
    fn paper_tile_working_set_close_to_41_kb() {
        let fp = InOutFootprint { ghost: 1 };
        let b = fp.ldm_bytes((16, 16, 8));
        // Paper reports 41.3 KB; the in+out model gives ~41.3 KiB.
        assert!(b > 40_000 && b < 44_000, "{b}");
        assert!(b <= 64 * 1024);
    }

    #[test]
    fn tiny_ldm_forces_small_tiles_or_none() {
        let fp = InOutFootprint { ghost: 1 };
        let shape = choose_tile_shape((16, 16, 16), &fp, 2 * 1024, 1).unwrap();
        assert!(fp.ldm_bytes(shape) <= 2 * 1024);
        // Impossible budget yields None.
        assert_eq!(choose_tile_shape((16, 16, 16), &fp, 100, 1), None);
    }

    #[test]
    fn target_tiles_forces_parallel_decomposition() {
        // An 8x8x8 patch fits the LDM as one tile, but with 64 CPEs to feed
        // the chooser must cut it into >= 64 tiles.
        let fp = InOutFootprint { ghost: 1 };
        let one = choose_tile_shape((8, 8, 8), &fp, 64 * 1024, 1).unwrap();
        assert_eq!(one, (8, 8, 8));
        let many = choose_tile_shape((8, 8, 8), &fp, 64 * 1024, 64).unwrap();
        let n_tiles = 512 / cells(many);
        assert!(n_tiles >= 64, "shape {many:?} gives {n_tiles} tiles");
        // When the target is unreachable the chooser falls back to the
        // cells-maximizing shape (never None just because of the target).
        let t = choose_tile_shape((2, 2, 2), &fp, 64 * 1024, 64).unwrap();
        assert_eq!(t, (2, 2, 2));
    }

    #[test]
    fn geometry_validation_accepts_paper_and_degenerate_but_sane_shapes() {
        for dims in [
            (16, 16, 512),
            (128, 128, 512),
            (1, 1, 1),
            (7, 13, 129), // prime / non-divisible
            (1, 1, MAX_AXIS_CELLS - 2),
        ] {
            assert_eq!(validate_patch_geometry(dims, 1), Ok(()), "{dims:?}");
        }
        // Wide ghosts on a tiny patch are fine as long as bounds hold.
        assert_eq!(validate_patch_geometry((1, 1, 1), 4), Ok(()));
    }

    #[test]
    fn geometry_validation_rejects_wrap_prone_shapes() {
        assert_eq!(
            validate_patch_geometry((0, 4, 4), 1),
            Err(GeomError::EmptyAxis {
                axis: 0,
                dims: (0, 4, 4)
            })
        );
        // Axis that wraps once ghosted.
        assert!(matches!(
            validate_patch_geometry((MAX_AXIS_CELLS, 4, 4), 1),
            Err(GeomError::AxisTooLarge { axis: 0, .. })
        ));
        // Per-axis fine, volume out of range.
        let a = 1 << 15;
        assert!(matches!(
            validate_patch_geometry((a, a, a), 1),
            Err(GeomError::VolumeTooLarge { .. })
        ));
        // usize::MAX-adjacent extents must not overflow the checker itself.
        assert!(validate_patch_geometry((usize::MAX, usize::MAX, usize::MAX), 1).is_err());
        assert!(validate_patch_geometry((usize::MAX, 1, 1), usize::MAX / 2).is_err());
    }

    #[test]
    fn ghosted_dims() {
        let t = TileDesc {
            origin: (0, 0, 0),
            dims: (16, 16, 8),
        };
        assert_eq!(t.ghosted_dims(1), (18, 18, 10));
        assert_eq!(t.cells(), 2048);
    }
}
