//! Functional execution of an offloaded kernel, tile-by-tile through the LDM.
//!
//! This is the CPE tile scheduler of paper §V-D run for real: for each CPE's
//! assigned tiles, (a) `athread_get` the ghosted input tile into LDM,
//! (b) apply the numerical kernel entirely on LDM-resident data,
//! (c) `athread_put` the modified tile back to main memory. The LDM
//! allocator enforces the 64 KB budget, so a kernel whose working set does
//! not fit fails exactly where it would on hardware.
//!
//! # Worker pool
//!
//! On the real SW26010 the 64 CPE tile loops run concurrently. The engine
//! reproduces that with an [`ExecPolicy`]: under
//! [`ExecPolicy::Parallel`] the per-CPE tile lists are claimed by a pool of
//! host worker threads (one `rayon` task per worker), each owning its own
//! [`TilePool`] — a private [`LdmAlloc`] plus staging buffers, exactly one
//! simulated scratchpad per worker. Tiles write disjoint interior cells
//! (validated before any parallel write), so the parallel result is
//! bit-identical to [`ExecPolicy::Serial`], which runs CPE 0's tiles, then
//! CPE 1's, ... on the calling thread.
//!
//! # Zero-allocation steady state
//!
//! Both policies stage tiles through pooled buffers sized once to the
//! largest (ghosted) tile of the assignment; the per-tile loop performs no
//! heap allocation. The budget discipline is unchanged: every tile still
//! resets its worker's allocator and reserves its input + output working
//! set, so an oversized tile fails with the same [`LdmOverflow`] the
//! per-tile allocator raised.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use sw_sim::{LdmAlloc, LdmOverflow};

use crate::tile::{is_exact_partition, Dims3, TileDesc};

/// Times a parallel-policy offload was demoted to serial because its tile
/// assignment was not an exact partition of the output (see
/// [`run_patch_functional_with`]). Monotonic over the process lifetime;
/// read it with [`serial_fallback_count`].
static SERIAL_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Whether the one-shot fallback warning has been printed already.
static FALLBACK_LOGGED: AtomicBool = AtomicBool::new(false);

/// Process-wide count of parallel offloads that silently degraded to the
/// serial engine because the tile assignment failed the exact-partition
/// check. A nonzero value means some offloads ran without CPE-level
/// parallelism — sweep reports surface it so the degradation is never
/// silent.
pub fn serial_fallback_count() -> u64 {
    SERIAL_FALLBACKS.load(Ordering::Relaxed)
}

/// Record one parallel->serial demotion; warns on stderr the first time.
fn note_serial_fallback(dims: Dims3, tiles: usize) {
    SERIAL_FALLBACKS.fetch_add(1, Ordering::Relaxed);
    if !FALLBACK_LOGGED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "sw-athread: parallel offload demoted to serial — {tiles}-tile \
             assignment is not an exact partition of the {dims:?} output \
             (further demotions counted silently; see serial_fallback_count())"
        );
    }
}

/// Flat index into an x-fastest 3-D array.
#[inline(always)]
pub fn idx3(dims: Dims3, x: usize, y: usize, z: usize) -> usize {
    debug_assert!(
        x < dims.0 && y < dims.1 && z < dims.2,
        "index ({x},{y},{z}) outside extent {dims:?} — negative offsets wrap \
         to huge values when cast to usize before this call"
    );
    x + dims.0 * (y + dims.1 * z)
}

/// How the functional engine maps simulated CPE tile lists onto host
/// threads.
///
/// The numerical result is policy-independent: tile outputs are disjoint
/// (validated before any parallel write), every worker runs the same tile
/// code against its own scratchpad, and no kernel reads another tile's
/// output. `Parallel` therefore changes wall-clock time only — the
/// workspace's property tests assert bit-identical outputs across policies
/// and thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Run every CPE's tile list on the calling thread, in CPE order.
    #[default]
    Serial,
    /// Fan the CPE tile lists out over a pool of host worker threads.
    Parallel {
        /// Worker threads; `0` means one per available hardware thread.
        threads: usize,
    },
}

impl ExecPolicy {
    /// Parallel execution with one worker per available hardware thread.
    pub const AUTO: ExecPolicy = ExecPolicy::Parallel { threads: 0 };

    /// Number of pool workers this policy yields for `lists` CPE tile
    /// lists: never more workers than lists, never fewer than one.
    pub fn workers_for(&self, lists: usize) -> usize {
        match *self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel { threads } => {
                let t = if threads == 0 {
                    rayon::current_num_threads()
                } else {
                    threads
                };
                t.clamp(1, lists.max(1))
            }
        }
    }
}

/// Read-only main-memory view of a field covering a patch *plus its ghost
/// layers* (assembled by the data warehouse before the offload).
#[derive(Clone, Copy)]
pub struct Field3<'a> {
    /// Cell data, x-fastest.
    pub data: &'a [f64],
    /// Extent including ghosts: patch dims + 2*ghost per axis.
    pub dims: Dims3,
}

/// Mutable main-memory view of the output field covering the patch interior.
pub struct Field3Mut<'a> {
    /// Cell data, x-fastest.
    pub data: &'a mut [f64],
    /// Patch extent.
    pub dims: Dims3,
}

/// Everything a kernel sees while computing one tile in the LDM.
pub struct TileCtx<'a> {
    /// The tile being computed (origin relative to the patch interior).
    pub tile: TileDesc,
    /// Global cell index of the patch's (0,0,0) interior cell, for evaluating
    /// coordinate-dependent coefficients like phi(x, t).
    pub patch_cell_origin: (i64, i64, i64),
    /// LDM copy of the ghosted input tile, extent `tile.ghosted_dims(g)`.
    pub ldm_in: &'a [f64],
    /// LDM output buffer, extent `tile.dims`.
    pub ldm_out: &'a mut [f64],
    /// Ghost layers in `ldm_in`.
    pub ghost: usize,
    /// Per-offload scalar parameters (convention: `[t, dt, ...]`), passed by
    /// the MPE alongside the tile descriptors.
    pub params: &'a [f64],
}

impl TileCtx<'_> {
    /// Read the ghosted input at tile-local interior coordinates, offset by
    /// `(dx,dy,dz)` into the ghost margin.
    #[inline(always)]
    pub fn in_at(&self, x: usize, y: usize, z: usize, dx: i64, dy: i64, dz: i64) -> f64 {
        let g = self.ghost as i64;
        let gd = self.tile.ghosted_dims(self.ghost);
        let xi = x as i64 + g + dx;
        let yi = y as i64 + g + dy;
        let zi = z as i64 + g + dz;
        // Catch under-runs on the signed values: a negative index would
        // silently wrap to a huge usize in the cast below and be reported
        // (confusingly) as an out-of-bounds *high* index, or read the wrong
        // cell outright in release builds.
        debug_assert!(
            xi >= 0 && yi >= 0 && zi >= 0,
            "stencil offset ({dx},{dy},{dz}) at tile cell ({x},{y},{z}) \
             reaches before the ghosted tile (ghost = {})",
            self.ghost
        );
        self.ldm_in[idx3(gd, xi as usize, yi as usize, zi as usize)]
    }

    /// Write the output at tile-local coordinates.
    #[inline(always)]
    pub fn out_at(&mut self, x: usize, y: usize, z: usize, v: f64) {
        let d = self.tile.dims;
        self.ldm_out[idx3(d, x, y, z)] = v;
    }

    /// Global cell index of tile-local cell (x, y, z).
    #[inline(always)]
    pub fn global_cell(&self, x: usize, y: usize, z: usize) -> (i64, i64, i64) {
        (
            self.patch_cell_origin.0 + self.tile.origin.0 as i64 + x as i64,
            self.patch_cell_origin.1 + self.tile.origin.1 as i64 + y as i64,
            self.patch_cell_origin.2 + self.tile.origin.2 as i64 + z as i64,
        )
    }
}

/// A numerical kernel that computes one tile on LDM-resident data.
pub trait CpeTileKernel: Send + Sync {
    /// Ghost layers required in the input.
    fn ghost(&self) -> usize;
    /// Compute the tile: read `ctx.ldm_in`, write every cell of
    /// `ctx.ldm_out` (the staging buffers are reused between tiles, so an
    /// unwritten cell would hold the previous tile's data, not zero).
    fn compute(&self, ctx: &mut TileCtx<'_>);
}

/// Execute a kernel functionally over a whole patch, serially (CPE 0's
/// tiles, then CPE 1's, ...).
///
/// Convenience wrapper over [`run_patch_functional_with`] with
/// [`ExecPolicy::Serial`]; see there for the parameter contract.
pub fn run_patch_functional(
    kernel: &dyn CpeTileKernel,
    input: Field3<'_>,
    output: &mut Field3Mut<'_>,
    patch_cell_origin: (i64, i64, i64),
    assignment: &[Vec<TileDesc>],
    ldm_bytes: usize,
    params: &[f64],
) -> Result<u64, LdmOverflow> {
    run_patch_functional_with(
        ExecPolicy::Serial,
        kernel,
        input,
        output,
        patch_cell_origin,
        assignment,
        ldm_bytes,
        params,
    )
}

/// Execute a kernel functionally over a whole patch under `policy`.
///
/// * `input` covers the patch plus `kernel.ghost()` layers per side;
/// * `output` covers the patch interior;
/// * `assignment` is the per-CPE tile assignment from
///   [`crate::tile::assign_tiles`];
/// * `ldm_bytes` is the scratchpad budget enforced per tile (per worker
///   under [`ExecPolicy::Parallel`], one simulated LDM each).
///
/// Parallel execution requires the assignment to tile the output exactly
/// (every interior cell covered by exactly one tile — what `tiles_of`
/// produces); an assignment that is not an exact partition is executed
/// serially so overlapping tiles keep their deterministic last-write-wins
/// order — each such demotion increments [`serial_fallback_count`] and the
/// first one warns on stderr. On success the result is bit-identical across
/// policies and thread
/// counts. On [`LdmOverflow`], each CPE list stops at its first failing
/// tile and the error of the lowest-indexed failing list is returned;
/// partially written output is unspecified under both policies.
///
/// Returns the number of tiles executed.
#[allow(clippy::too_many_arguments)]
pub fn run_patch_functional_with(
    policy: ExecPolicy,
    kernel: &dyn CpeTileKernel,
    input: Field3<'_>,
    output: &mut Field3Mut<'_>,
    patch_cell_origin: (i64, i64, i64),
    assignment: &[Vec<TileDesc>],
    ldm_bytes: usize,
    params: &[f64],
) -> Result<u64, LdmOverflow> {
    let g = kernel.ghost();
    debug_assert_eq!(
        (
            output.dims.0 + 2 * g,
            output.dims.1 + 2 * g,
            output.dims.2 + 2 * g
        ),
        input.dims,
        "input must be the ghosted extent of output"
    );
    let (max_in, max_out) = staging_extents(assignment, g);
    let busy_lists = assignment.iter().filter(|l| !l.is_empty()).count();
    let mut workers = policy.workers_for(busy_lists);
    if workers > 1 && !is_exact_partition(output.dims, assignment) {
        // Overlapping or incomplete tile assignments must keep the serial
        // last-write-wins order; count the demotion so it is never silent.
        note_serial_fallback(
            output.dims,
            assignment.iter().map(|l| l.len()).sum::<usize>(),
        );
        workers = 1;
    }
    if workers > 1 {
        run_parallel(RunArgs {
            kernel,
            input,
            output,
            patch_cell_origin,
            assignment,
            ldm_bytes,
            params,
            g,
            max_in,
            max_out,
            workers,
        })
    } else {
        run_serial(RunArgs {
            kernel,
            input,
            output,
            patch_cell_origin,
            assignment,
            ldm_bytes,
            params,
            g,
            max_in,
            max_out,
            workers: 1,
        })
    }
}

/// Bundled arguments for the two engine back-ends.
struct RunArgs<'r, 'a> {
    kernel: &'r dyn CpeTileKernel,
    input: Field3<'r>,
    output: &'r mut Field3Mut<'a>,
    patch_cell_origin: (i64, i64, i64),
    assignment: &'r [Vec<TileDesc>],
    ldm_bytes: usize,
    params: &'r [f64],
    g: usize,
    max_in: usize,
    max_out: usize,
    workers: usize,
}

/// Largest staging extents (ghosted-input cells, output cells) over every
/// tile of the assignment — the pooled-buffer sizes.
fn staging_extents(assignment: &[Vec<TileDesc>], g: usize) -> (usize, usize) {
    let mut max_in = 0;
    let mut max_out = 0;
    for t in assignment.iter().flatten() {
        let gd = t.ghosted_dims(g);
        max_in = max_in.max(gd.0 * gd.1 * gd.2);
        max_out = max_out.max(t.dims.0 * t.dims.1 * t.dims.2);
    }
    (max_in, max_out)
}

/// Per-worker reusable execution state: one simulated LDM allocator plus
/// input/output staging buffers sized to the assignment's largest tile.
/// After construction the tile loop allocates nothing.
struct TilePool {
    ldm: LdmAlloc,
    buf_in: Vec<f64>,
    buf_out: Vec<f64>,
}

impl TilePool {
    fn new(ldm_bytes: usize, max_in: usize, max_out: usize) -> Self {
        TilePool {
            ldm: LdmAlloc::new(ldm_bytes),
            buf_in: vec![0.0; max_in],
            buf_out: vec![0.0; max_out],
        }
    }

    /// Stage, compute, and write back one tile, reusing the pool's buffers.
    ///
    /// The budget check reserves the tile's input then output working set
    /// against a freshly reset allocator — byte-for-byte the sequence the
    /// per-tile allocator performed, so overflow errors are unchanged.
    fn run_tile(
        &mut self,
        args: &RunArgs<'_, '_>,
        out: &SharedOut,
        t: &TileDesc,
    ) -> Result<(), LdmOverflow> {
        let g = args.g;
        let gd = t.ghosted_dims(g);
        let n_in = gd.0 * gd.1 * gd.2;
        let n_out = t.dims.0 * t.dims.1 * t.dims.2;
        self.ldm.reset();
        self.ldm.reserve(n_in * 8)?;
        self.ldm.reserve(n_out * 8)?;
        let ldm_in = &mut self.buf_in[..n_in];
        let ldm_out = &mut self.buf_out[..n_out];
        athread_get(&args.input, t, g, ldm_in);
        let mut ctx = TileCtx {
            tile: *t,
            patch_cell_origin: args.patch_cell_origin,
            ldm_in,
            ldm_out,
            ghost: g,
            params: args.params,
        };
        args.kernel.compute(&mut ctx);
        // SAFETY: `out` writes stay inside tile `t` (bounds asserted in
        // `put_tile`), and the caller guarantees no concurrent writer
        // overlaps `t` — single-threaded for the serial engine, exact
        // partition for the parallel one.
        unsafe { out.put_tile(ldm_out, t) };
        Ok(())
    }
}

/// Output-field pointer shared by the tile workers.
///
/// Writers only touch cells of their own tiles; the engine guarantees the
/// tiles written through one `SharedOut` concurrently are pairwise disjoint
/// (checked by [`is_exact_partition`] before parallel execution; trivially
/// true for the serial engine, which holds the only reference).
struct SharedOut {
    ptr: *mut f64,
    len: usize,
    dims: Dims3,
}

// SAFETY: the raw pointer refers to a `&mut [f64]` that outlives the scope
// the workers run in (see `run_parallel`); sending the wrapper moves only
// the pointer, never aliases the borrow.
unsafe impl Send for SharedOut {}
// SAFETY: see the struct docs — concurrent access through a shared
// `SharedOut` is restricted to non-overlapping writes of disjoint tiles,
// so no two threads ever touch the same cell.
unsafe impl Sync for SharedOut {}

impl SharedOut {
    fn of(out: &mut Field3Mut<'_>) -> Self {
        assert_eq!(
            out.data.len(),
            out.dims.0 * out.dims.1 * out.dims.2,
            "output slice does not match its declared extent"
        );
        SharedOut {
            ptr: out.data.as_mut_ptr(),
            len: out.data.len(),
            dims: out.dims,
        }
    }

    /// DMA a computed tile from LDM back to main memory (`athread_put`),
    /// row strides hoisted out of the copy loops.
    ///
    /// # Safety
    /// No concurrent `put_tile` may overlap tile `t`.
    unsafe fn put_tile(&self, ldm: &[f64], t: &TileDesc) {
        let d = t.dims;
        // Bounds: checked arithmetic-free because each coordinate is first
        // bounded by the extent itself.
        assert!(
            d.0 <= self.dims.0
                && t.origin.0 <= self.dims.0 - d.0
                && d.1 <= self.dims.1
                && t.origin.1 <= self.dims.1 - d.1
                && d.2 <= self.dims.2
                && t.origin.2 <= self.dims.2 - d.2,
            "tile {t:?} outside output extent {:?}",
            self.dims
        );
        assert!(
            ldm.len() >= d.0 * d.1 * d.2,
            "LDM staging buffer ({} cells) smaller than tile {t:?} ({} cells)",
            ldm.len(),
            d.0 * d.1 * d.2
        );
        let sx = self.dims.0;
        let plane = self.dims.0 * self.dims.1;
        let row0 = t.origin.0 + sx * t.origin.1 + plane * t.origin.2;
        let mut rows = ldm[..d.0 * d.1 * d.2].chunks_exact(d.0);
        for z in 0..d.2 {
            let zbase = row0 + z * plane;
            for y in 0..d.1 {
                let dst = zbase + y * sx;
                // Every copied row must land inside the output field *and*
                // inside the tile's declared interior: [dst, dst + d.0) is
                // row (y, z) of tile `t`, whose last cell is at flat index
                // row0 + (d.2-1)*plane + (d.1-1)*sx + d.0 - 1 < len by the
                // extent assertion above. Check both in debug builds so a
                // mis-specified tile fails loudly before the unsafe copy.
                debug_assert!(
                    dst + d.0 <= self.len,
                    "row (y={y}, z={z}) of tile {t:?} writes [{dst}, {}) past \
                     output len {}",
                    dst + d.0,
                    self.len
                );
                debug_assert!(
                    dst >= row0 && dst + d.0 <= row0 + (d.2 - 1) * plane + (d.1 - 1) * sx + d.0,
                    "row (y={y}, z={z}) of tile {t:?} escapes the tile's \
                     declared interior"
                );
                let row = rows.next().expect("LDM tile smaller than its extent");
                debug_assert_eq!(
                    row.len(),
                    d.0,
                    "LDM row length does not match tile x-extent for {t:?}"
                );
                // SAFETY: dst + d.0 <= len by the extent assertion above;
                // `row` borrows the LDM staging buffer, disjoint from the
                // output field.
                unsafe { std::ptr::copy_nonoverlapping(row.as_ptr(), self.ptr.add(dst), d.0) };
            }
        }
    }
}

/// DMA a ghosted tile window from main memory into LDM (`athread_get`),
/// row strides hoisted out of the copy loops.
fn athread_get(input: &Field3<'_>, t: &TileDesc, g: usize, ldm: &mut [f64]) {
    let gd = t.ghosted_dims(g);
    let sx = input.dims.0;
    let plane = input.dims.0 * input.dims.1;
    // The input field is already ghost-extended, so the ghosted window of a
    // tile at interior origin `o` starts at `o` in input coordinates.
    let row0 = t.origin.0 + sx * t.origin.1 + plane * t.origin.2;
    let mut rows = ldm[..gd.0 * gd.1 * gd.2].chunks_exact_mut(gd.0);
    for z in 0..gd.2 {
        let zbase = row0 + z * plane;
        for y in 0..gd.1 {
            let src = zbase + y * sx;
            rows.next()
                .expect("LDM tile smaller than its extent")
                .copy_from_slice(&input.data[src..src + gd.0]);
        }
    }
}

/// The serial engine: one pool, CPE lists in order, first error wins.
fn run_serial(args: RunArgs<'_, '_>) -> Result<u64, LdmOverflow> {
    let out = SharedOut::of(args.output);
    let mut pool = TilePool::new(args.ldm_bytes, args.max_in, args.max_out);
    let mut tiles_run = 0;
    for cpe_tiles in args.assignment {
        for t in cpe_tiles {
            pool.run_tile(&args, &out, t)?;
            tiles_run += 1;
        }
    }
    Ok(tiles_run)
}

/// The parallel engine: `workers` rayon tasks claim CPE tile lists from a
/// shared counter; each worker owns a private [`TilePool`] (its simulated
/// LDM). Requires `args.assignment` to be an exact partition of the output.
fn run_parallel(args: RunArgs<'_, '_>) -> Result<u64, LdmOverflow> {
    let out = SharedOut::of(args.output);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let args_ref = &args;
    let results: Vec<(u64, Option<(usize, LdmOverflow)>)> = rayon::scope(|s| {
        let handles: Vec<_> = (0..args_ref.workers)
            .map(|_| {
                let (out, next, abort) = (&out, &next, &abort);
                s.spawn(move || {
                    let mut pool =
                        TilePool::new(args_ref.ldm_bytes, args_ref.max_in, args_ref.max_out);
                    let mut tiles_run = 0u64;
                    let mut first_err: Option<(usize, LdmOverflow)> = None;
                    while !abort.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cpe_tiles) = args_ref.assignment.get(i) else {
                            break;
                        };
                        for t in cpe_tiles {
                            match pool.run_tile(args_ref, out, t) {
                                Ok(()) => tiles_run += 1,
                                Err(e) => {
                                    // Stop this CPE list at its first failing
                                    // tile, like the serial engine, and tell
                                    // the other workers to wind down.
                                    first_err = Some((i, e));
                                    abort.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                        if first_err.is_some() {
                            break;
                        }
                    }
                    (tiles_run, first_err)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("CPE worker panicked"))
            .collect()
    });
    let mut tiles = 0;
    let mut err: Option<(usize, LdmOverflow)> = None;
    for (n, e) in results {
        tiles += n;
        if let Some((i, e)) = e {
            // Deterministic selection among observed failures: lowest CPE
            // list index first, the order the serial engine scans in.
            if err.is_none_or(|(j, _)| i < j) {
                err = Some((i, e));
            }
        }
    }
    match err {
        Some((_, e)) => Err(e),
        None => Ok(tiles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{assign_tiles, tiles_of};

    /// 7-point average kernel for testing the executor plumbing.
    struct Avg7;

    impl CpeTileKernel for Avg7 {
        fn ghost(&self) -> usize {
            1
        }
        fn compute(&self, ctx: &mut TileCtx<'_>) {
            let d = ctx.tile.dims;
            for z in 0..d.2 {
                for y in 0..d.1 {
                    for x in 0..d.0 {
                        let s = ctx.in_at(x, y, z, 0, 0, 0)
                            + ctx.in_at(x, y, z, -1, 0, 0)
                            + ctx.in_at(x, y, z, 1, 0, 0)
                            + ctx.in_at(x, y, z, 0, -1, 0)
                            + ctx.in_at(x, y, z, 0, 1, 0)
                            + ctx.in_at(x, y, z, 0, 0, -1)
                            + ctx.in_at(x, y, z, 0, 0, 1);
                        ctx.out_at(x, y, z, s / 7.0);
                    }
                }
            }
        }
    }

    fn reference_avg7(input: &[f64], patch: Dims3) -> Vec<f64> {
        let gdims = (patch.0 + 2, patch.1 + 2, patch.2 + 2);
        let mut out = vec![0.0; patch.0 * patch.1 * patch.2];
        for z in 0..patch.2 {
            for y in 0..patch.1 {
                for x in 0..patch.0 {
                    let at = |dx: i64, dy: i64, dz: i64| {
                        input[idx3(
                            gdims,
                            (x as i64 + 1 + dx) as usize,
                            (y as i64 + 1 + dy) as usize,
                            (z as i64 + 1 + dz) as usize,
                        )]
                    };
                    out[idx3(patch, x, y, z)] = (at(0, 0, 0)
                        + at(-1, 0, 0)
                        + at(1, 0, 0)
                        + at(0, -1, 0)
                        + at(0, 1, 0)
                        + at(0, 0, -1)
                        + at(0, 0, 1))
                        / 7.0;
                }
            }
        }
        out
    }

    fn filled_input(patch: Dims3) -> Vec<f64> {
        let gdims = (patch.0 + 2, patch.1 + 2, patch.2 + 2);
        (0..gdims.0 * gdims.1 * gdims.2)
            .map(|i| (i as f64 * 0.37).sin())
            .collect()
    }

    #[test]
    fn tiled_execution_matches_untiled_reference() {
        let patch = (12, 10, 16);
        let input_data = filled_input(patch);
        let want = reference_avg7(&input_data, patch);

        let tiles = tiles_of(patch, (4, 4, 4));
        for cpes in [1, 3, 7] {
            let assignment = assign_tiles(&tiles, cpes);
            let mut out_data = vec![0.0; patch.0 * patch.1 * patch.2];
            let n = run_patch_functional(
                &Avg7,
                Field3 {
                    data: &input_data,
                    dims: (patch.0 + 2, patch.1 + 2, patch.2 + 2),
                },
                &mut Field3Mut {
                    data: &mut out_data,
                    dims: patch,
                },
                (0, 0, 0),
                &assignment,
                64 * 1024,
                &[],
            )
            .unwrap();
            assert_eq!(n, tiles.len() as u64);
            assert_eq!(out_data, want, "cpes = {cpes}");
        }
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_serial() {
        let patch = (12, 10, 16);
        let input_data = filled_input(patch);
        let want = reference_avg7(&input_data, patch);
        let tiles = tiles_of(patch, (4, 4, 4));
        for cpes in [1, 3, 7, 64] {
            let assignment = assign_tiles(&tiles, cpes);
            for policy in [
                ExecPolicy::Parallel { threads: 2 },
                ExecPolicy::Parallel { threads: 4 },
                ExecPolicy::AUTO,
            ] {
                let mut out_data = vec![f64::NAN; patch.0 * patch.1 * patch.2];
                let n = run_patch_functional_with(
                    policy,
                    &Avg7,
                    Field3 {
                        data: &input_data,
                        dims: (patch.0 + 2, patch.1 + 2, patch.2 + 2),
                    },
                    &mut Field3Mut {
                        data: &mut out_data,
                        dims: patch,
                    },
                    (0, 0, 0),
                    &assignment,
                    64 * 1024,
                    &[],
                )
                .unwrap();
                assert_eq!(n, tiles.len() as u64);
                assert_eq!(out_data, want, "cpes = {cpes}, policy = {policy:?}");
            }
        }
    }

    #[test]
    fn ldm_budget_is_enforced() {
        let patch = (8, 8, 8);
        let input_data = filled_input(patch);
        let tiles = tiles_of(patch, (8, 8, 8)); // one big tile
        let assignment = assign_tiles(&tiles, 1);
        let mut out_data = vec![0.0; 512];
        // Working set: 10*10*10 + 8*8*8 doubles = 12096 B; give it less.
        let err = run_patch_functional(
            &Avg7,
            Field3 {
                data: &input_data,
                dims: (10, 10, 10),
            },
            &mut Field3Mut {
                data: &mut out_data,
                dims: patch,
            },
            (0, 0, 0),
            &assignment,
            8 * 1024,
            &[],
        )
        .unwrap_err();
        assert_eq!(err.capacity, 8 * 1024);
    }

    #[test]
    fn ldm_overflow_propagates_out_of_the_parallel_scope() {
        let patch = (8, 8, 16);
        let input_data = filled_input(patch);
        let tiles = tiles_of(patch, (8, 8, 8)); // two over-budget tiles
        let assignment = assign_tiles(&tiles, 2);
        let mut out_data = vec![0.0; patch.0 * patch.1 * patch.2];
        let serial_err = run_patch_functional(
            &Avg7,
            Field3 {
                data: &input_data,
                dims: (10, 10, 18),
            },
            &mut Field3Mut {
                data: &mut out_data,
                dims: patch,
            },
            (0, 0, 0),
            &assignment,
            8 * 1024,
            &[],
        )
        .unwrap_err();
        let par_err = run_patch_functional_with(
            ExecPolicy::Parallel { threads: 2 },
            &Avg7,
            Field3 {
                data: &input_data,
                dims: (10, 10, 18),
            },
            &mut Field3Mut {
                data: &mut out_data,
                dims: patch,
            },
            (0, 0, 0),
            &assignment,
            8 * 1024,
            &[],
        )
        .unwrap_err();
        // Same-shape tiles fail identically, so the errors must agree.
        assert_eq!(serial_err, par_err);
        assert_eq!(par_err.capacity, 8 * 1024);
    }

    #[test]
    fn overlapping_assignment_falls_back_to_serial_order() {
        // Two tiles covering the same cells: not a partition, so the
        // parallel policy must run them serially and keep last-write-wins.
        struct Stamp;
        impl CpeTileKernel for Stamp {
            fn ghost(&self) -> usize {
                0
            }
            fn compute(&self, ctx: &mut TileCtx<'_>) {
                let v = ctx.params[0] + ctx.tile.origin.2 as f64;
                let d = ctx.tile.dims;
                for i in 0..d.0 * d.1 * d.2 {
                    ctx.ldm_out[i] = v;
                }
            }
        }
        let patch = (4, 4, 2);
        let whole = TileDesc {
            origin: (0, 0, 0),
            dims: patch,
        };
        let assignment = vec![vec![whole], vec![whole]];
        let input = vec![0.0; 32];
        let mut out_serial = vec![0.0; 32];
        let mut out_par = vec![0.0; 32];
        let fallbacks_before = serial_fallback_count();
        for (policy, out) in [
            (ExecPolicy::Serial, &mut out_serial),
            (ExecPolicy::Parallel { threads: 2 }, &mut out_par),
        ] {
            run_patch_functional_with(
                policy,
                &Stamp,
                Field3 {
                    data: &input,
                    dims: patch,
                },
                &mut Field3Mut {
                    data: out,
                    dims: patch,
                },
                (0, 0, 0),
                &assignment,
                64 * 1024,
                &[7.0],
            )
            .unwrap();
        }
        assert_eq!(out_serial, out_par);
        // Exactly one demotion: the Serial run is not a fallback, only the
        // parallel-policy run of the overlapping assignment counts. (This is
        // the only test in the binary that increments the process-wide
        // counter, so the exact delta is race-free.)
        assert_eq!(serial_fallback_count(), fallbacks_before + 1);

        // Counter is untouched by an exact-partition parallel run.
        let patch = (12, 10, 16);
        let input_data = filled_input(patch);
        let tiles = tiles_of(patch, (4, 4, 4));
        let assignment = assign_tiles(&tiles, 4);
        let before = serial_fallback_count();
        let mut out_data = vec![0.0; patch.0 * patch.1 * patch.2];
        run_patch_functional_with(
            ExecPolicy::Parallel { threads: 2 },
            &Avg7,
            Field3 {
                data: &input_data,
                dims: (patch.0 + 2, patch.1 + 2, patch.2 + 2),
            },
            &mut Field3Mut {
                data: &mut out_data,
                dims: patch,
            },
            (0, 0, 0),
            &assignment,
            64 * 1024,
            &[],
        )
        .unwrap();
        assert_eq!(serial_fallback_count(), before);
    }

    #[test]
    fn exec_policy_worker_counts() {
        assert_eq!(ExecPolicy::Serial.workers_for(64), 1);
        assert_eq!(ExecPolicy::Parallel { threads: 4 }.workers_for(64), 4);
        // Never more workers than tile lists, never fewer than one.
        assert_eq!(ExecPolicy::Parallel { threads: 8 }.workers_for(3), 3);
        assert_eq!(ExecPolicy::Parallel { threads: 8 }.workers_for(0), 1);
        assert!(ExecPolicy::AUTO.workers_for(64) >= 1);
        assert_eq!(ExecPolicy::default(), ExecPolicy::Serial);
    }

    #[test]
    fn global_cell_indices_account_for_patch_and_tile_origin() {
        struct Probe;
        impl CpeTileKernel for Probe {
            fn ghost(&self) -> usize {
                0
            }
            fn compute(&self, ctx: &mut TileCtx<'_>) {
                let d = ctx.tile.dims;
                for z in 0..d.2 {
                    for y in 0..d.1 {
                        for x in 0..d.0 {
                            let (gx, gy, gz) = ctx.global_cell(x, y, z);
                            ctx.out_at(x, y, z, (gx * 10000 + gy * 100 + gz) as f64);
                        }
                    }
                }
            }
        }
        let patch = (4, 4, 4);
        let input_data = vec![0.0; 64];
        let tiles = tiles_of(patch, (2, 2, 2));
        let assignment = assign_tiles(&tiles, 2);
        let mut out_data = vec![0.0; 64];
        run_patch_functional(
            &Probe,
            Field3 {
                data: &input_data,
                dims: patch,
            },
            &mut Field3Mut {
                data: &mut out_data,
                dims: patch,
            },
            (100, 200, 300),
            &assignment,
            64 * 1024,
            &[],
        )
        .unwrap();
        // Cell (3,1,2) of the patch = global (103, 201, 302).
        assert_eq!(
            out_data[idx3(patch, 3, 1, 2)],
            (103 * 10000 + 201 * 100 + 302) as f64
        );
        assert_eq!(
            out_data[idx3(patch, 0, 0, 0)],
            (100 * 10000 + 200 * 100 + 300) as f64
        );
    }
}
