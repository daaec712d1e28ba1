//! `repro comm`: the multi-endpoint / aggregation / crossover sweep
//! (DESIGN.md §18).
//!
//! A grid over the communication-layer knobs — endpoint counts ×
//! aggregation thresholds × eager/rendezvous crossover sizes — with every
//! cell proved three ways and recorded in `results/COMM.json`:
//!
//! * **byte identity** — a functional run under the cell's knobs must
//!   reproduce the single-endpoint, no-aggregation baseline warehouse
//!   bit-for-bit (endpoints, coalescing, the progress lane, and the
//!   crossover are pure transport refinements: they may reorder wire
//!   packets, never payload unpacking);
//! * **overlap efficiency** — an instrumented model run of the async
//!   scheduler, its phase pass reconciled against `RunReport::step_end`
//!   exactly; the campaign's headline `async_agg_overlap` (the canonical
//!   aggregated cell) must stay at or above the plain async baseline's
//!   0.800;
//! * **lookahead proof** — the static proof over the cell's *coalesced*
//!   channel models ([`uintah_core::prove_lookahead_for_plans_with`])
//!   must come back safe at the default lookahead.
//!
//! [`CommOutcome::violations`] enforces all three plus grid coverage and
//! the aggregation-engaged checks; `repro comm` exits non-zero naming the
//! cell (the ci.sh comm stage relies on it).

use sw_telemetry::json::{
    arr, fixed, obj,
    Layout::{Block, Row},
};
use sw_telemetry::{analyze, Event};
use uintah_core::{prove_lookahead_for_plans_with, CommConfig, ExecMode, RunConfig, Variant};

use crate::problems::{ProblemSpec, SMALL};
use crate::runner::{burgers, plans};
use crate::trace::reconciles;

/// Endpoint counts swept.
pub const ENDPOINTS: [u32; 3] = [1, 2, 4];

/// Aggregation `(agg_bytes, agg_deadline_ps)` points swept; `(0, 0)` is
/// aggregation off.
pub const AGGREGATION: [(u64, u64); 3] = [(0, 0), (512, AGG_DEADLINE_PS), (4096, AGG_DEADLINE_PS)];

/// Flush deadline for the aggregated cells: 5 us, a few wire times of the
/// largest staged payload — long enough for byte-threshold flushes to
/// dominate, short enough that a lone straggler never stalls a window.
pub const AGG_DEADLINE_PS: u64 = 5_000_000;

/// Eager/rendezvous crossover overrides swept; `None` keeps the machine's
/// calibrated `eager_limit_bytes`.
pub const CROSSOVER: [Option<u64>; 3] = [None, Some(256), Some(65536)];

/// The sweep problem and shape: the committed-trace configuration, so the
/// baseline overlap numbers line up with `results/TIMELINE.json`.
pub const CGS: usize = 4;
/// Timesteps per run.
pub const STEPS: u32 = 5;

/// The canonical aggregated configuration the headline number is measured
/// at: all endpoint lanes on, byte-threshold coalescing, calibrated
/// crossover, dedicated progress lane.
pub const CANONICAL: CommConfig = CommConfig {
    endpoints: 4,
    agg_bytes: 4096,
    agg_deadline_ps: AGG_DEADLINE_PS,
    eager_crossover: None,
    progress_lane: true,
};

/// One swept cell's outcome.
pub struct CommCell {
    /// Endpoint lanes per rank.
    pub endpoints: u32,
    /// Aggregation flush threshold, bytes (0 = aggregation off).
    pub agg_bytes: u64,
    /// Aggregation flush deadline, ps (0 = aggregation off).
    pub agg_deadline_ps: u64,
    /// Eager/rendezvous crossover override (`None` = machine default).
    pub crossover: Option<u64>,
    /// Functional run reproduced the baseline warehouse bit-for-bit.
    pub bit_identical: bool,
    /// Overlap efficiency of the instrumented async model run.
    pub overlap_efficiency: f64,
    /// Phase pass reconciled against `RunReport::step_end` exactly.
    pub reconciled: bool,
    /// Messages parked in staging buffers during the model run.
    pub agg_staged: usize,
    /// Coalesced flushes the model run emitted.
    pub agg_flushes: usize,
    /// Channels the cell's lookahead proof covered (coalesced when the
    /// cell aggregates).
    pub channels: usize,
    /// Proved minimum delivery latency over those channels, ps.
    pub min_latency_ps: u64,
    /// The proof held at the default lookahead.
    pub proof_safe: bool,
}

/// The whole sweep's outcome.
pub struct CommOutcome {
    /// Sweep problem name.
    pub problem: &'static str,
    /// Ranks per run.
    pub cgs: usize,
    /// Timesteps per run.
    pub steps: u32,
    /// Every grid cell, endpoint-major.
    pub cells: Vec<CommCell>,
    /// Baseline sync overlap efficiency (no comm knobs).
    pub sync_overlap: f64,
    /// Baseline async overlap efficiency (no comm knobs).
    pub async_overlap: f64,
    /// Async overlap efficiency at [`CANONICAL`] — the acceptance number.
    pub async_agg_overlap: f64,
}

/// The canonical aggregated async overlap must hold this bar (the plain
/// async baseline's 0.800).
pub const MIN_ASYNC_AGG_OVERLAP: f64 = 0.800;

impl CommOutcome {
    /// Every broken sweep invariant, one line per cell: the three proofs,
    /// non-vacuity (channels proved, every axis swept, no duplicate cell),
    /// aggregation actually engaging where it coalesced channels, and the
    /// overlap bars. Empty = the sweep holds.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let axis = |f: &dyn Fn(&CommCell) -> Option<u64>| {
            let mut seen: Vec<_> = self.cells.iter().map(f).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        if axis(&|c| Some(u64::from(c.endpoints))) < 2
            || axis(&|c| Some(c.agg_bytes)) < 2
            || axis(&|c| c.crossover) < 2
        {
            v.push(format!(
                "sweep too narrow: {} cell(s) do not vary every axis",
                self.cells.len()
            ));
        }
        for (i, c) in self.cells.iter().enumerate() {
            let cell = format!(
                "cell ep={} agg={} xo={:?}",
                c.endpoints, c.agg_bytes, c.crossover
            );
            let same_knobs = |o: &CommCell| {
                (o.endpoints, o.agg_bytes, o.crossover) == (c.endpoints, c.agg_bytes, c.crossover)
            };
            if self.cells[..i].iter().any(same_knobs) {
                v.push(format!("{cell}: duplicate grid cell"));
            }
            if !c.bit_identical {
                v.push(format!(
                    "{cell}: warehouse diverged from the single-endpoint baseline"
                ));
            }
            if !c.reconciled {
                v.push(format!(
                    "{cell}: phase pass did not reconcile with the RunReport"
                ));
            }
            if !c.proof_safe {
                v.push(format!(
                    "{cell}: lookahead proof unsafe over the coalesced channels"
                ));
            }
            if c.channels == 0 {
                v.push(format!("{cell}: proved zero channels (vacuous)"));
            }
            if !(0.0..=1.0).contains(&c.overlap_efficiency) {
                v.push(format!(
                    "{cell}: overlap {} outside [0, 1]",
                    c.overlap_efficiency
                ));
            }
            // Fewer proved channels than the aggregation-off sibling means
            // eager sends were coalesced, so the model run must have staged
            // something. (A small crossover can push every payload to
            // rendezvous: zero staging is then correct and the counts match.)
            let sibling = self.cells.iter().find(|o| {
                o.agg_bytes == 0 && o.endpoints == c.endpoints && o.crossover == c.crossover
            });
            if c.agg_bytes > 0
                && c.agg_staged == 0
                && sibling.is_some_and(|o| c.channels < o.channels)
            {
                v.push(format!(
                    "{cell}: aggregation coalesced channels but nothing was staged"
                ));
            }
            if c.agg_flushes > c.agg_staged {
                v.push(format!(
                    "{cell}: more flushes ({}) than staged messages ({})",
                    c.agg_flushes, c.agg_staged
                ));
            }
        }
        if !self.cells.iter().any(|c| c.agg_flushes > 0) {
            v.push(
                "no cell ever flushed a coalesced packet: the aggregation path never ran"
                    .to_string(),
            );
        }
        if self.async_overlap <= self.sync_overlap {
            v.push(format!(
                "async overlap {:.6} does not beat sync {:.6}",
                self.async_overlap, self.sync_overlap
            ));
        }
        if self.async_agg_overlap < MIN_ASYNC_AGG_OVERLAP {
            v.push(format!(
                "canonical aggregated overlap {:.6} below the {MIN_ASYNC_AGG_OVERLAP} bar",
                self.async_agg_overlap
            ));
        }
        v
    }
}

/// Functional run under `comm`; returns the final warehouse bits.
///
/// Deliberately *not* the virtual step clocks: the comm knobs change when
/// packets move (that is the performance effect the model cells measure),
/// the byte-identity contract is about what the packets carry.
fn functional_bits(p: &ProblemSpec, comm: CommConfig) -> Vec<Vec<u64>> {
    let cfg = RunConfig {
        steps: STEPS,
        comm,
        ..RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, CGS)
    };
    let mut sim = burgers(&p.level(), cfg).expect("a valid comm cell");
    sim.run();
    sim.solution_bits()
}

/// Instrumented model run under `comm` (any Table IV variant); returns
/// `(overlap_efficiency, reconciled, agg_staged, agg_flushes)`.
fn model_overlap(p: &ProblemSpec, variant: Variant, comm: CommConfig) -> (f64, bool, usize, usize) {
    let mut cfg = RunConfig {
        steps: STEPS,
        comm,
        ..RunConfig::paper(variant, ExecMode::Model, CGS)
    };
    cfg.options.telemetry = true;
    let mut sim = burgers(&p.level(), cfg).expect("a valid comm cell");
    let report = sim.run();
    let snap = sim.recorder().snapshot();
    let phases = analyze(&snap);
    let reconciled = reconciles(&phases, &report);
    let mut staged = 0usize;
    let mut flushes = 0usize;
    for r in snap.iter().flatten() {
        match r.event {
            Event::AggStaged { .. } => staged += 1,
            Event::AggFlushed { .. } => flushes += 1,
            _ => {}
        }
    }
    (phases.overlap_efficiency, reconciled, staged, flushes)
}

/// Prove the cell's (coalesced) channel set safe at the default lookahead.
fn cell_proof(p: &ProblemSpec, comm: &CommConfig) -> (usize, u64, bool) {
    let cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, CGS);
    let (proof, _) = prove_lookahead_for_plans_with(
        &plans(&p.level(), &cfg),
        &cfg.machine,
        comm,
        cfg.machine.net_latency.0,
    );
    (proof.channels.len(), proof.min_latency_ps, proof.safe)
}

/// Run one cell: byte identity against `base`, instrumented overlap, and
/// the static proof.
fn run_cell(p: &ProblemSpec, comm: CommConfig, base: &[Vec<u64>]) -> CommCell {
    let bit_identical = functional_bits(p, comm) == base;
    let (overlap, reconciled, agg_staged, agg_flushes) = model_overlap(p, Variant::ACC_ASYNC, comm);
    let (channels, min_latency_ps, proof_safe) = cell_proof(p, &comm);
    CommCell {
        endpoints: comm.endpoints,
        agg_bytes: comm.agg_bytes,
        agg_deadline_ps: comm.agg_deadline_ps,
        crossover: comm.eager_crossover,
        bit_identical,
        overlap_efficiency: overlap,
        reconciled,
        agg_staged,
        agg_flushes,
        channels,
        min_latency_ps,
        proof_safe,
    }
}

/// Run the whole sweep.
pub fn run_comm() -> CommOutcome {
    let p = SMALL;
    let base = functional_bits(p, CommConfig::default());
    let mut cells = Vec::new();
    for endpoints in ENDPOINTS {
        for (agg_bytes, agg_deadline_ps) in AGGREGATION {
            for crossover in CROSSOVER {
                let comm = CommConfig {
                    endpoints,
                    agg_bytes,
                    agg_deadline_ps,
                    eager_crossover: crossover,
                    progress_lane: true,
                };
                cells.push(run_cell(p, comm, &base));
            }
        }
    }
    let (sync_overlap, ..) = model_overlap(p, Variant::ACC_SYNC, CommConfig::default());
    let (async_overlap, ..) = model_overlap(p, Variant::ACC_ASYNC, CommConfig::default());
    let (async_agg_overlap, ..) = model_overlap(p, Variant::ACC_ASYNC, CANONICAL);
    CommOutcome {
        problem: p.name,
        cgs: CGS,
        steps: STEPS,
        cells,
        sync_overlap,
        async_overlap,
        async_agg_overlap,
    }
}

/// Render `COMM.json`.
pub fn comm_json(o: &CommOutcome) -> String {
    let cells = o.cells.iter().map(|c| {
        obj(
            Row,
            [
                ("endpoints", c.endpoints.into()),
                ("agg_bytes", c.agg_bytes.into()),
                ("agg_deadline_ps", c.agg_deadline_ps.into()),
                ("crossover", c.crossover.into()),
                ("bit_identical", c.bit_identical.into()),
                ("overlap_efficiency", fixed(c.overlap_efficiency, 6)),
                ("reconciled", c.reconciled.into()),
                ("agg_staged", c.agg_staged.into()),
                ("agg_flushes", c.agg_flushes.into()),
                ("channels", c.channels.into()),
                ("min_latency_ps", c.min_latency_ps.into()),
                ("proof_safe", c.proof_safe.into()),
            ],
        )
    });
    let doc = obj(
        Block,
        [
            ("generated_by", "repro comm".into()),
            ("problem", o.problem.into()),
            ("cgs", o.cgs.into()),
            ("steps", o.steps.into()),
            ("sync_overlap", fixed(o.sync_overlap, 6)),
            ("async_overlap", fixed(o.async_overlap, 6)),
            ("async_agg_overlap", fixed(o.async_agg_overlap, 6)),
            ("cells", arr(Block, cells)),
            (
                "all_identical",
                o.cells.iter().all(|c| c.bit_identical).into(),
            ),
            ("all_safe", o.cells.iter().all(|c| c.proof_safe).into()),
            ("ok", o.violations().is_empty().into()),
        ],
    );
    doc.render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_core::iv;

    /// A unit-test-sized problem (the full sweep runs [`SMALL`] in release
    /// via `repro comm`; debug-mode tests need something much cheaper).
    const TINY: &ProblemSpec = &ProblemSpec {
        name: "tiny",
        patch: iv(4, 4, 8),
        min_cgs: 1,
    };

    #[test]
    fn aggregated_cell_is_bit_identical_and_actually_coalesces() {
        let base = functional_bits(TINY, CommConfig::default());
        let cell = run_cell(TINY, CANONICAL, &base);
        assert!(cell.bit_identical, "aggregation changed the warehouse");
        assert!(cell.reconciled);
        assert!(cell.proof_safe);
        assert!(
            cell.agg_staged > 0 && cell.agg_flushes > 0,
            "canonical knobs must engage the aggregation path \
             (staged {}, flushes {})",
            cell.agg_staged,
            cell.agg_flushes
        );
        assert!(cell.agg_flushes <= cell.agg_staged);
    }

    #[test]
    fn crossover_boundary_cells_are_byte_identical() {
        // Satellite: a crossover at the largest ghost payload, one byte
        // under it, and one byte over it — the protocol flips between
        // eager and rendezvous across these, the bytes must not move.
        let base = functional_bits(TINY, CommConfig::default());
        let payload = {
            let cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, CGS);
            plans(&TINY.level(), &cfg)
                .iter()
                .flat_map(|p| p.sends.iter().map(|s| s.window.cells() * 8))
                .max()
                .expect("cross-rank plans must have sends")
        };
        for xo in [payload - 1, payload, payload + 1] {
            let comm = CommConfig {
                eager_crossover: Some(xo),
                ..CommConfig::default()
            };
            assert_eq!(
                functional_bits(TINY, comm),
                base,
                "crossover {xo} changed the warehouse"
            );
        }
        // At the boundary itself — every ghost flips from rendezvous to
        // eager — the instrumented model run must still reconcile with its
        // RunReport and the coalesced-channel proof must still hold.
        let comm = CommConfig {
            eager_crossover: Some(payload),
            ..CommConfig::default()
        };
        let (_, reconciled, ..) = model_overlap(TINY, Variant::ACC_ASYNC, comm);
        assert!(reconciled, "boundary crossover broke reconciliation");
        let (_, _, safe) = cell_proof(TINY, &comm);
        assert!(safe);
    }

    /// A 2x2x2 grid that holds every invariant.
    fn passing() -> CommOutcome {
        let mut cells = Vec::new();
        for endpoints in [1, 2] {
            for agg_bytes in [0, 512] {
                for crossover in [None, Some(256)] {
                    // Aggregation coalesces only while payloads stay eager.
                    let coalesces = agg_bytes > 0 && crossover.is_none();
                    cells.push(CommCell {
                        endpoints,
                        agg_bytes,
                        agg_deadline_ps: if agg_bytes > 0 { AGG_DEADLINE_PS } else { 0 },
                        crossover,
                        bit_identical: true,
                        overlap_efficiency: 0.81,
                        reconciled: true,
                        agg_staged: if coalesces { 10 } else { 0 },
                        agg_flushes: if coalesces { 4 } else { 0 },
                        channels: if coalesces { 8 } else { 16 },
                        min_latency_ps: 1_008_000,
                        proof_safe: true,
                    });
                }
            }
        }
        CommOutcome {
            problem: "p",
            cgs: 4,
            steps: 5,
            cells,
            sync_overlap: 0.72,
            async_overlap: 0.80,
            async_agg_overlap: 0.81,
        }
    }

    #[test]
    fn violations_name_the_corrupted_cell() {
        let o = passing();
        assert_eq!(o.violations(), Vec::<String>::new());
        let json = comm_json(&o);
        assert!(json.contains("\"crossover\": null"));
        assert!(json.contains("\"ok\": true"));

        let named = |corrupt: &dyn Fn(&mut CommOutcome), needle: &str| {
            let o = crate::cli::assert_names(passing(), corrupt, CommOutcome::violations, needle);
            assert!(comm_json(&o).contains("\"ok\": false"));
        };
        // cells[2] is ep=1 agg=512 xo=None, the first coalescing cell.
        named(
            &|o| o.cells[2].bit_identical = false,
            "cell ep=1 agg=512 xo=None: warehouse diverged",
        );
        named(&|o| o.cells[3].reconciled = false, "did not reconcile");
        named(
            &|o| o.cells[6].proof_safe = false,
            "cell ep=2 agg=512 xo=None: lookahead proof unsafe",
        );
        named(&|o| o.cells[0].channels = 0, "zero channels");
        named(&|o| o.cells[1].overlap_efficiency = 1.5, "outside [0, 1]");
        named(
            &|o| o.cells[2].agg_staged = 0,
            "coalesced channels but nothing was staged",
        );
        named(&|o| o.cells[2].agg_flushes = 11, "more flushes (11)");
        named(
            &|o| o.cells.iter_mut().for_each(|c| c.agg_flushes = 0),
            "aggregation path never ran",
        );
        named(&|o| o.cells[1].crossover = None, "duplicate grid cell");
        named(&|o| o.cells.truncate(1), "sweep too narrow");
        named(&|o| o.async_overlap = 0.70, "does not beat sync");
        named(&|o| o.async_agg_overlap = 0.79, "below the 0.8 bar");
    }
}
