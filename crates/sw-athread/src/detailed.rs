//! Detailed per-tile timing simulation.
//!
//! The closed-form [`crate::cost::kernel_timing`] assumes *constant* DMA
//! contention: every active CPE shares the memory controller for the whole
//! kernel. This module walks the same tile schedule event by event with a
//! *time-varying* contention model — as CPEs finish their tile lists, the
//! survivors get a larger bandwidth share, so transfers late in the kernel
//! run faster.
//!
//! The detailed result therefore lower-bounds the closed form; with a
//! balanced assignment (the paper's z-slab partition gives every CPE the
//! same work) the two agree exactly, which the cross-validation tests
//! assert. The evaluation sweeps use the closed form (one event per
//! kernel); this simulation exists to justify that choice, so it is a
//! test-only reference model compiled with the crate's tests.

use sw_sim::{MachineConfig, SimDur, SimTime};

use crate::cost::{compute_tile_time, KernelRate, TileCostModel, TransferMode};
use crate::tile::TileDesc;

/// Phase a CPE is in while processing its tile list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// DMA-in of tile `i` (bytes remaining tracked separately).
    DmaIn,
    /// Computing tile `i`.
    Compute,
    /// DMA-out of tile `i`.
    DmaOut,
    /// All tiles done.
    Done,
}

struct CpeState<'a> {
    tiles: &'a [TileDesc],
    idx: usize,
    phase: Phase,
    /// Bytes left in the current DMA transfer.
    bytes_left: f64,
    /// Remaining latency or compute time in the current phase.
    time_left: SimDur,
    finish: SimTime,
}

/// Simulate one kernel offload tile-by-tile with fair-share bandwidth that
/// re-divides among CPEs currently transferring. Returns the kernel duration
/// (max CPE finish time). Only the synchronous transfer mode is simulated
/// (the paper's implementation).
pub fn detailed_kernel_duration(
    cfg: &MachineConfig,
    assignment: &[Vec<TileDesc>],
    model: &dyn TileCostModel,
    rate: KernelRate,
) -> SimDur {
    assert_eq!(
        rate.transfer,
        TransferMode::Synchronous,
        "detailed simulation covers the paper's synchronous transfers"
    );
    let mut cpes: Vec<CpeState<'_>> = assignment
        .iter()
        .map(|tiles| CpeState {
            tiles,
            idx: 0,
            phase: if tiles.is_empty() {
                Phase::Done
            } else {
                Phase::DmaIn
            },
            bytes_left: 0.0,
            time_left: SimDur::ZERO,
            finish: SimTime::ZERO,
        })
        .collect();
    // Initialize first DMA-in.
    for c in &mut cpes {
        if c.phase == Phase::DmaIn {
            c.time_left = cfg.dma_latency;
            c.bytes_left = model.bytes_in(c.tiles[0].dims) as f64;
        }
    }
    let mut now = SimTime::ZERO;
    loop {
        let transferring = cpes
            .iter()
            .filter(|c| {
                matches!(c.phase, Phase::DmaIn | Phase::DmaOut)
                    && (c.bytes_left > 0.0 || c.time_left > SimDur::ZERO)
            })
            .count();
        if cpes.iter().all(|c| c.phase == Phase::Done) {
            break;
        }
        // Fair share of the memory controller among transferring CPEs,
        // capped by the per-CPE engine peak.
        let bw = if transferring > 0 {
            cfg.dma_cpe_peak_gbs
                .min(cfg.mem_bw_gbs / transferring as f64)
                * 1e9
        } else {
            1.0 // unused
        };
        // Time until each busy CPE's next phase boundary.
        let mut dt = SimDur(u64::MAX);
        for c in &cpes {
            let remain = match c.phase {
                Phase::Done => continue,
                Phase::Compute => c.time_left,
                Phase::DmaIn | Phase::DmaOut => {
                    c.time_left + SimDur::from_secs_f64(c.bytes_left / bw)
                }
            };
            dt = dt.min(remain);
        }
        debug_assert!(dt > SimDur::ZERO, "no progress at {now}");
        now += dt;
        // Advance every CPE by dt.
        for c in &mut cpes {
            match c.phase {
                Phase::Done => {}
                Phase::Compute => {
                    c.time_left -= dt;
                    if c.time_left == SimDur::ZERO {
                        c.phase = Phase::DmaOut;
                        c.time_left = cfg.dma_latency;
                        c.bytes_left = model.bytes_out(c.tiles[c.idx].dims) as f64;
                    }
                }
                Phase::DmaIn | Phase::DmaOut => {
                    // Latency drains first, then bytes at the shared rate.
                    let mut left = dt;
                    if c.time_left > SimDur::ZERO {
                        let lat = c.time_left.min(left);
                        c.time_left -= lat;
                        left -= lat;
                    }
                    if left > SimDur::ZERO {
                        c.bytes_left -= left.as_secs_f64() * bw;
                        // Virtual time is integer picoseconds: one rounding
                        // step leaves at most bw * 0.5ps ~ 0.002 bytes of
                        // residue, far below a meaningful transfer.
                        if c.bytes_left < 0.01 {
                            c.bytes_left = 0.0;
                        }
                    }
                    if c.time_left == SimDur::ZERO && c.bytes_left == 0.0 {
                        match c.phase {
                            Phase::DmaIn => {
                                c.phase = Phase::Compute;
                                c.time_left = compute_tile_time(&c.tiles[c.idx], model, rate);
                            }
                            Phase::DmaOut => {
                                c.idx += 1;
                                if c.idx == c.tiles.len() {
                                    c.phase = Phase::Done;
                                    c.finish = now;
                                } else {
                                    c.phase = Phase::DmaIn;
                                    c.time_left = cfg.dma_latency;
                                    c.bytes_left = model.bytes_in(c.tiles[c.idx].dims) as f64;
                                }
                            }
                            _ => unreachable!(),
                        }
                    }
                }
            }
        }
    }
    cpes.iter()
        .map(|c| c.finish)
        .max()
        .unwrap_or(SimTime::ZERO)
        .since(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::kernel_timing;
    use crate::tile::{assign_tiles, cells, tiles_of, Dims3};

    struct M;
    impl TileCostModel for M {
        fn ghost(&self) -> usize {
            1
        }
        fn flops(&self, d: Dims3) -> u64 {
            305 * cells(d)
        }
        fn exp_flops(&self, d: Dims3) -> u64 {
            204 * cells(d)
        }
        fn exp_calls(&self, d: Dims3) -> u64 {
            6 * cells(d)
        }
    }

    #[test]
    fn balanced_assignment_matches_closed_form_exactly() {
        // The paper's geometry: identical tile lists per CPE. Contention is
        // constant (all CPEs transfer in lockstep), so the closed form is
        // exact.
        let cfg = MachineConfig::sw26010();
        let tiles = tiles_of((16, 16, 512), (16, 16, 8));
        let assignment = assign_tiles(&tiles, 64);
        let rate = KernelRate::scalar(&cfg);
        let analytic = kernel_timing(&cfg, &assignment, &M, rate).duration;
        let detailed = detailed_kernel_duration(&cfg, &assignment, &M, rate);
        let rel = (analytic.as_secs_f64() - detailed.as_secs_f64()).abs() / analytic.as_secs_f64();
        assert!(rel < 1e-9, "analytic {analytic} vs detailed {detailed}");
    }

    #[test]
    fn detailed_never_exceeds_closed_form() {
        // Unbalanced lists: stragglers enjoy more bandwidth once others
        // finish, so the detailed duration can only be shorter.
        let cfg = MachineConfig::sw26010();
        let tiles = tiles_of((16, 16, 120), (16, 16, 8)); // 15 tiles
        for cpes in [2usize, 4, 7] {
            let assignment = assign_tiles(&tiles, cpes);
            let rate = KernelRate::scalar(&cfg);
            let analytic = kernel_timing(&cfg, &assignment, &M, rate).duration;
            let detailed = detailed_kernel_duration(&cfg, &assignment, &M, rate);
            assert!(
                detailed <= analytic,
                "cpes={cpes}: detailed {detailed} > analytic {analytic}"
            );
            // And never absurdly shorter (compute dominates this kernel).
            assert!(detailed.as_secs_f64() > 0.9 * analytic.as_secs_f64());
        }
    }

    #[test]
    fn single_cpe_single_tile_is_exact_arithmetic() {
        let cfg = MachineConfig::sw26010();
        let tiles = tiles_of((16, 16, 8), (16, 16, 8));
        let assignment = assign_tiles(&tiles, 1);
        let rate = KernelRate::scalar(&cfg);
        let detailed = detailed_kernel_duration(&cfg, &assignment, &M, rate);
        let expect = crate::cost::tile_time(&cfg, &tiles[0], &M, rate, 1);
        let diff = (detailed.as_secs_f64() - expect.as_secs_f64()).abs();
        assert!(diff < 1e-9, "{detailed} vs {expect}");
    }

    #[test]
    fn empty_assignment_is_zero() {
        let cfg = MachineConfig::sw26010();
        let assignment: Vec<Vec<TileDesc>> = vec![vec![]; 4];
        let d = detailed_kernel_duration(&cfg, &assignment, &M, KernelRate::scalar(&cfg));
        assert_eq!(d, SimDur::ZERO);
    }
}
