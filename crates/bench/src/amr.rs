//! AMR experiments: the `repro amr` subcommand.
//!
//! Five proofs against the Burgers traveling front, written to
//! `results/AMR.json`:
//!
//! 1. **Resolution economy** — a 2-level adaptive run (16³ root, ratio-2
//!    child window tracking the front) must match the uniformly fine 32³
//!    run's composite error while performing measurably fewer total cell
//!    updates, and must beat the uniformly coarse 16³ run's error at the
//!    same timestep.
//! 2. **Mid-run regridding** — the adaptive run must regrid at least twice
//!    (the window really moves), and **every** recompiled task graph must
//!    pass the sw-analyze hazard verifier and the static lookahead proof
//!    with zero findings.
//! 3. **Cross-policy byte identity** — the whole adaptive run (every
//!    level's final interior bits) is identical under the serial and
//!    parallel tile-execution engines and under scalar vs SIMD kernels.
//! 4. **Kill + restart across a regrid** — restoring the mid-run hierarchy
//!    checkpoint and replaying the tail (which regrids again) lands on the
//!    byte-identical final state.
//! 5. **Telemetry-driven rebalancing** — on heterogeneous CGs, feeding the
//!    measured per-patch cost profile back through the LPT balancer must
//!    strictly reduce the weighted makespan vs the static block assignment.

use std::path::Path;
use std::sync::Arc;

use burgers::BurgersAmr;
use sw_amr::{AmrApplication, AmrConfig, AmrSimulation, AmrStats, RegridPolicy};
use sw_math::ExpKind;
use sw_resilience::Checkpoint;
use sw_telemetry::json::{
    arr, fixed, lit, obj,
    Layout::{Block, Row},
};
use uintah_core::grid::{iv, Level};
use uintah_core::{ExecPolicy, Variant};

/// Steps every run advances (≈ 0.076 s of physical time at the fine dt —
/// far enough for the front to move the refinement window).
const STEPS: u32 = 30;
/// Ranks (= CGs) every run schedules onto.
const RANKS: usize = 4;
/// Flag threshold that keeps the child window partial (the point of AMR).
const THRESHOLD: f64 = 0.12;
/// Regrid cadence in steps.
const REGRID_EVERY: u32 = 5;

fn family() -> Arc<dyn AmrApplication> {
    Arc::new(BurgersAmr::new(ExpKind::Fast))
}

/// The adaptive policy of the campaign (2 levels, ratio 2).
fn adaptive_policy(seed: u64) -> RegridPolicy {
    RegridPolicy {
        max_levels: 2,
        ratio: 2,
        flag_threshold: THRESHOLD,
        regrid_every: REGRID_EVERY,
        regrid_frac: 0.3,
        seed,
    }
}

/// The adaptive configuration: 16³ root, 2 levels.
fn adaptive_cfg(seed: u64) -> AmrConfig {
    let mut cfg = AmrConfig::basic(Variant::ACC_SIMD_ASYNC, RANKS);
    cfg.steps = STEPS;
    cfg.policy = adaptive_policy(seed);
    cfg
}

fn root_16() -> Level {
    Level::new(iv(4, 4, 4), iv(4, 4, 4))
}

/// One resolution cell: a run's work and composite error.
#[derive(Clone, Debug)]
pub struct ResolutionCell {
    /// Cell label: `adaptive`, `uniform_fine`, `uniform_coarse`.
    pub label: &'static str,
    /// Total cell updates over the run.
    pub cell_updates: u64,
    /// Composite max error vs the exact solution at the final time.
    pub max_error: f64,
    /// Timestep the run advanced with.
    pub dt: f64,
}

/// The regrid/verification proof of the adaptive run.
#[derive(Clone, Debug)]
pub struct AdaptiveProof {
    /// Full run counters.
    pub stats: AmrStats,
    /// Levels at the end of the run.
    pub n_levels: usize,
    /// Fine-level cells as a fraction of a full-domain fine level
    /// (< 1.0 = the window stayed partial).
    pub fine_window_frac: f64,
}

/// One byte-identity cell: the same adaptive run under a different
/// execution configuration.
#[derive(Clone, Debug)]
pub struct AmrIdentityCell {
    /// Configuration label.
    pub label: &'static str,
    /// Final interior bits of every level match the baseline's.
    pub bit_identical: bool,
    /// The run's regrid count matched the baseline's too.
    pub same_regrids: bool,
}

/// Outcome of the kill + restart proof.
#[derive(Clone, Debug)]
pub struct AmrRestartProof {
    /// Step the restored run resumed from.
    pub resumed_step: u32,
    /// Checkpoint file size in bytes.
    pub ckpt_bytes: u64,
    /// Regrids the resumed tail performed (must cross one).
    pub tail_regrids: u32,
    /// Restored final bits == uninterrupted final bits.
    pub restart_identical: bool,
}

/// Outcome of the telemetry-rebalance proof.
#[derive(Clone, Debug)]
pub struct RebalanceProof {
    /// Rebalances the run applied.
    pub rebalances: u32,
    /// Weighted root-level makespan (ps) of the final measured profile
    /// under the static block assignment.
    pub static_makespan_ps: u64,
    /// Same profile under the telemetry-fed LPT assignment.
    pub rebalanced_makespan_ps: u64,
    /// Relative improvement `(static - rebalanced) / static`.
    pub gain_frac: f64,
}

/// The whole `repro amr` campaign result.
#[derive(Clone, Debug)]
pub struct AmrOutcome {
    /// Seed of the regrid-dilation draws.
    pub seed: u64,
    /// Adaptive vs uniform resolution economy.
    pub resolution: Vec<ResolutionCell>,
    /// Regrid + verification proof.
    pub adaptive: AdaptiveProof,
    /// Cross-policy byte identity cells.
    pub identity: Vec<AmrIdentityCell>,
    /// Kill + restart proof.
    pub restart: AmrRestartProof,
    /// Telemetry-rebalance proof.
    pub rebalance: RebalanceProof,
}

impl AmrOutcome {
    /// Every failed proof, one line each. Empty = all five proofs hold.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let cell = |label: &str| self.resolution.iter().find(|c| c.label == label);
        match (
            cell("adaptive"),
            cell("uniform_fine"),
            cell("uniform_coarse"),
        ) {
            (Some(ad), Some(fine), Some(coarse)) => {
                for c in [ad, fine, coarse] {
                    if c.cell_updates == 0 || c.max_error <= 0.0 || c.dt <= 0.0 {
                        v.push(format!(
                            "resolution {}: non-positive cell_updates, error or dt",
                            c.label
                        ));
                    }
                }
                if ad.dt != fine.dt || ad.dt != coarse.dt {
                    v.push(format!(
                        "resolution: cells disagree on dt ({:e}, {:e}, {:e})",
                        ad.dt, fine.dt, coarse.dt
                    ));
                }
                // Economy: materially fewer updates than uniformly fine, at
                // the fine run's error (and clearly better than coarse).
                if ad.cell_updates >= (fine.cell_updates * 3) / 5 {
                    v.push(format!(
                        "resolution adaptive: {} cell updates, not under 60% of uniform_fine's {}",
                        ad.cell_updates, fine.cell_updates
                    ));
                }
                if ad.max_error > fine.max_error * 1.1 {
                    v.push(format!(
                        "resolution adaptive: error {:.4e} exceeds 1.1x the uniform_fine error {:.4e}",
                        ad.max_error, fine.max_error
                    ));
                }
                if ad.max_error > coarse.max_error * 0.8 {
                    v.push(format!(
                        "resolution adaptive: error {:.4e} does not clearly beat uniform_coarse's {:.4e}",
                        ad.max_error, coarse.max_error
                    ));
                }
            }
            _ => v.push(
                "resolution: needs the adaptive, uniform_fine and uniform_coarse cells".to_string(),
            ),
        }
        // Regridding really happened, and every recompile verified clean.
        let s = &self.adaptive.stats;
        if s.regrids < 2 {
            v.push(format!(
                "adaptive: only {} regrid(s), the run must regrid >= 2 times",
                s.regrids
            ));
        }
        if s.verify_errors != 0
            || s.lookahead_violations != 0
            || s.verified_clean != s.recompiles
            || s.recompiles == 0
        {
            v.push(format!(
                "adaptive: {} of {} recompiles verified clean ({} error(s), {} lookahead finding(s))",
                s.verified_clean, s.recompiles, s.verify_errors, s.lookahead_violations
            ));
        }
        let frac = self.adaptive.fine_window_frac;
        if self.adaptive.n_levels != 2 || frac <= 0.0 || frac >= 1.0 {
            v.push(format!(
                "adaptive: {} level(s) with the fine window covering {frac:.6} of the domain, \
                 refinement is not selective",
                self.adaptive.n_levels
            ));
        }
        if self.identity.len() < 3 {
            v.push(format!(
                "byte_identity: only {} execution policies, need >= 3",
                self.identity.len()
            ));
        }
        for c in &self.identity {
            if !c.bit_identical || !c.same_regrids {
                v.push(format!(
                    "byte_identity {}: adaptive run diverged (bit_identical={}, same_regrids={})",
                    c.label, c.bit_identical, c.same_regrids
                ));
            }
        }
        let r = &self.restart;
        if !r.restart_identical {
            v.push("restart: restored run diverged from the uninterrupted run".to_string());
        }
        if r.resumed_step == 0 || r.ckpt_bytes == 0 || r.tail_regrids == 0 {
            v.push(format!(
                "restart: resumed from step {} ({} ckpt bytes) and crossed {} regrid(s), \
                 the proof is vacuous",
                r.resumed_step, r.ckpt_bytes, r.tail_regrids
            ));
        }
        let rb = &self.rebalance;
        if rb.rebalances == 0
            || rb.gain_frac <= 0.0
            || rb.rebalanced_makespan_ps >= rb.static_makespan_ps
        {
            v.push(format!(
                "rebalance: {} applied, weighted makespan {} -> {} ps is not an improvement",
                rb.rebalances, rb.static_makespan_ps, rb.rebalanced_makespan_ps
            ));
        }
        v
    }

    /// Render `AMR.json`.
    pub fn to_json(&self) -> String {
        let resolution = self.resolution.iter().map(|c| {
            obj(
                Row,
                [
                    ("label", c.label.into()),
                    ("cell_updates", c.cell_updates.into()),
                    ("max_error", lit(format_args!("{:e}", c.max_error))),
                    ("dt", lit(format_args!("{:e}", c.dt))),
                ],
            )
        });
        let identity = self.identity.iter().map(|c| {
            obj(
                Row,
                [
                    ("label", c.label.into()),
                    ("bit_identical", c.bit_identical.into()),
                    ("same_regrids", c.same_regrids.into()),
                ],
            )
        });
        let a = &self.adaptive;
        let doc = obj(
            Block,
            [
                ("seed", self.seed.into()),
                ("resolution", arr(Block, resolution)),
                (
                    "adaptive",
                    obj(
                        Row,
                        [
                            ("regrids", a.stats.regrids.into()),
                            ("rebalances", a.stats.rebalances.into()),
                            ("recompiles", a.stats.recompiles.into()),
                            ("verified_clean", a.stats.verified_clean.into()),
                            ("verify_errors", a.stats.verify_errors.into()),
                            ("lookahead_violations", a.stats.lookahead_violations.into()),
                            ("cell_updates", a.stats.cell_updates.into()),
                            ("checkpoints", a.stats.checkpoints.into()),
                            ("n_levels", a.n_levels.into()),
                            ("fine_window_frac", fixed(a.fine_window_frac, 6)),
                        ],
                    ),
                ),
                ("byte_identity", arr(Block, identity)),
                (
                    "restart",
                    obj(
                        Row,
                        [
                            ("resumed_step", self.restart.resumed_step.into()),
                            ("ckpt_bytes", self.restart.ckpt_bytes.into()),
                            ("tail_regrids", self.restart.tail_regrids.into()),
                            ("restart_identical", self.restart.restart_identical.into()),
                        ],
                    ),
                ),
                (
                    "rebalance",
                    obj(
                        Row,
                        [
                            ("rebalances", self.rebalance.rebalances.into()),
                            (
                                "static_makespan_ps",
                                self.rebalance.static_makespan_ps.into(),
                            ),
                            (
                                "rebalanced_makespan_ps",
                                self.rebalance.rebalanced_makespan_ps.into(),
                            ),
                            ("gain_frac", fixed(self.rebalance.gain_frac, 6)),
                        ],
                    ),
                ),
                ("failures", self.violations().len().into()),
            ],
        );
        doc.render() + "\n"
    }
}

/// Weighted makespan (ps) of a measured per-patch profile under an
/// assignment: `max_r sum(profile[p] for asn[p] == r) / speed[r]`.
fn weighted_makespan(
    profile: &std::collections::BTreeMap<usize, u64>,
    asn: &[usize],
    speeds: &[f64],
) -> u64 {
    let mut loads = vec![0u64; speeds.len()];
    for (&p, &cost) in profile {
        loads[asn[p]] += cost;
    }
    loads
        .iter()
        .zip(speeds)
        .map(|(&l, &s)| (l as f64 / s).round() as u64)
        .max()
        .unwrap_or(0)
}

/// Run the full AMR campaign with the given dilation seed.
pub fn run_amr(seed: u64, ckpt_dir: &Path) -> AmrOutcome {
    let app = family();

    // 1 + 2. The baseline adaptive run (checkpointing mid-run for proof 4).
    let mut cfg = adaptive_cfg(seed);
    cfg.ckpt_every = Some(10);
    cfg.ckpt_dir = Some(ckpt_dir.to_path_buf());
    std::fs::create_dir_all(ckpt_dir).expect("create checkpoint dir");
    let mut base = AmrSimulation::new(root_16(), app.clone(), cfg.clone());
    let base_stats = base.run();
    let base_bits = base.solution_bits();
    let fine_cells = base
        .grid()
        .levels
        .last()
        .map_or(0, |e| e.level.grid().cells());
    let full_fine = root_16().grid().cells() * 8; // ratio 2 per axis
    let adaptive_err = base.max_error().into_iter().fold(0.0f64, f64::max);

    // Uniformly fine: the whole domain at the child resolution, same dt.
    let fine_root = Level::new(iv(4, 4, 4), iv(8, 8, 8));
    let mut fine_cfg = AmrConfig::basic(Variant::ACC_SIMD_ASYNC, RANKS);
    fine_cfg.steps = STEPS;
    let mut fine = AmrSimulation::new(fine_root, app.clone(), fine_cfg);
    let fine_stats = fine.run();
    let fine_err = fine.max_error().into_iter().fold(0.0f64, f64::max);

    // Uniformly coarse at the same (fine) dt: an infinite flag threshold
    // never refines but still derives dt from the virtual finest level.
    let mut coarse_cfg = adaptive_cfg(seed);
    coarse_cfg.policy.flag_threshold = f64::INFINITY;
    let mut coarse = AmrSimulation::new(root_16(), app.clone(), coarse_cfg);
    let coarse_stats = coarse.run();
    let coarse_err = coarse.max_error().into_iter().fold(0.0f64, f64::max);

    let resolution = vec![
        ResolutionCell {
            label: "adaptive",
            cell_updates: base_stats.cell_updates,
            max_error: adaptive_err,
            dt: base.dt(),
        },
        ResolutionCell {
            label: "uniform_fine",
            cell_updates: fine_stats.cell_updates,
            max_error: fine_err,
            dt: fine.dt(),
        },
        ResolutionCell {
            label: "uniform_coarse",
            cell_updates: coarse_stats.cell_updates,
            max_error: coarse_err,
            dt: coarse.dt(),
        },
    ];

    let adaptive = AdaptiveProof {
        stats: base_stats.clone(),
        n_levels: base.grid().n_levels(),
        fine_window_frac: fine_cells as f64 / full_fine as f64,
    };

    // 3. Cross-policy byte identity: same run, different execution engines
    // and kernel flavors.
    let mut identity = Vec::new();
    let variants: [(&'static str, Variant, ExecPolicy); 3] = [
        (
            "parallel_tiles",
            Variant::ACC_SIMD_ASYNC,
            ExecPolicy::Parallel { threads: 2 },
        ),
        ("scalar_kernel", Variant::ACC_ASYNC, ExecPolicy::Serial),
        ("sync_scheduler", Variant::ACC_SYNC, ExecPolicy::Serial),
    ];
    for (label, variant, policy) in variants {
        let mut c = adaptive_cfg(seed);
        c.variant = variant;
        c.options.exec_policy = policy;
        let mut sim = AmrSimulation::new(root_16(), app.clone(), c);
        let stats = sim.run();
        identity.push(AmrIdentityCell {
            label,
            bit_identical: sim.solution_bits() == base_bits,
            same_regrids: stats.regrids == base_stats.regrids,
        });
    }

    // 4. Kill + restart from the step-10 checkpoint; the tail regrids
    // again (cadence 5 over 20 remaining steps), then must land on the
    // baseline's exact bits.
    let ckpt_path = ckpt_dir.join("amr00010.ckpt");
    let ckpt_bytes = std::fs::metadata(&ckpt_path).map(|m| m.len()).unwrap_or(0);
    let ckpt = Checkpoint::read_from(&ckpt_path).expect("read mid-run checkpoint");
    let regrids_at_ckpt = ckpt.amr.as_ref().map_or(0, |a| a.regrids);
    let mut resumed = AmrSimulation::restore_from(app.clone(), cfg, &ckpt);
    while resumed.step_count() < STEPS {
        resumed.step();
    }
    let restart = AmrRestartProof {
        resumed_step: ckpt.step,
        ckpt_bytes,
        tail_regrids: resumed.stats().regrids - regrids_at_ckpt,
        restart_identical: resumed.solution_bits() == base_bits,
    };

    // 5. Telemetry-driven rebalancing on heterogeneous CGs: score the
    // final measured profile under the static block assignment vs the
    // LPT assignment the run actually converged to.
    let speeds = vec![1.0, 1.0, 0.5, 0.5];
    let mut rb_cfg = adaptive_cfg(seed);
    rb_cfg.rebalance_every = Some(3);
    rb_cfg.cg_speeds = Some(speeds.clone());
    let mut rb = AmrSimulation::new(root_16(), app, rb_cfg);
    let rb_stats = rb.run();
    let static_asn = uintah_core::LoadBalancer::Block.assign(&root_16(), RANKS);
    let static_ms = weighted_makespan(rb.profile(0), &static_asn, &speeds);
    let lpt_ms = weighted_makespan(rb.profile(0), rb.assignment(0), &speeds);
    let rebalance = RebalanceProof {
        rebalances: rb_stats.rebalances,
        static_makespan_ps: static_ms,
        rebalanced_makespan_ps: lpt_ms,
        gain_frac: if static_ms == 0 {
            0.0
        } else {
            (static_ms as f64 - lpt_ms as f64) / static_ms as f64
        },
    };

    AmrOutcome {
        seed,
        resolution,
        adaptive,
        identity,
        restart,
        rebalance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_makespan_respects_speeds() {
        let mut profile = std::collections::BTreeMap::new();
        profile.insert(0usize, 100u64);
        profile.insert(1, 100);
        let even = weighted_makespan(&profile, &[0, 1], &[1.0, 1.0]);
        assert_eq!(even, 100);
        let slow = weighted_makespan(&profile, &[0, 1], &[1.0, 0.5]);
        assert_eq!(slow, 200, "slow rank dominates");
        let piled = weighted_makespan(&profile, &[0, 0], &[1.0, 0.5]);
        assert_eq!(piled, 200);
    }

    #[test]
    fn adaptive_policy_is_the_documented_one() {
        let p = adaptive_policy(42);
        assert_eq!(p.max_levels, 2);
        assert_eq!(p.ratio, 2);
        assert_eq!(p.regrid_every, REGRID_EVERY);
    }

    /// The committed `results/AMR.json` as an in-memory outcome.
    fn passing() -> AmrOutcome {
        let cell = |label, cell_updates, max_error| ResolutionCell {
            label,
            cell_updates,
            max_error,
            dt: 2.5e-3,
        };
        let identity = |label| AmrIdentityCell {
            label,
            bit_identical: true,
            same_regrids: true,
        };
        AmrOutcome {
            seed: 42,
            resolution: vec![
                cell("adaptive", 391_680, 5.17e-2),
                cell("uniform_fine", 983_040, 5.15e-2),
                cell("uniform_coarse", 122_880, 8.25e-2),
            ],
            adaptive: AdaptiveProof {
                stats: AmrStats {
                    steps: STEPS,
                    regrids: 3,
                    recompiles: 8,
                    verified_clean: 8,
                    cell_updates: 391_680,
                    checkpoints: 3,
                    ..AmrStats::default()
                },
                n_levels: 2,
                fine_window_frac: 0.421875,
            },
            identity: vec![
                identity("parallel_tiles"),
                identity("scalar_kernel"),
                identity("sync_scheduler"),
            ],
            restart: AmrRestartProof {
                resumed_step: 10,
                ckpt_bytes: 168_620,
                tail_regrids: 2,
                restart_identical: true,
            },
            rebalance: RebalanceProof {
                rebalances: 9,
                static_makespan_ps: 4_323_305_656,
                rebalanced_makespan_ps: 2_918_850_220,
                gain_frac: 0.324857,
            },
        }
    }

    #[test]
    fn violations_name_the_corrupted_proof() {
        let o = passing();
        assert_eq!(o.violations(), Vec::<String>::new());
        let j = o.to_json();
        assert!(j.contains("\"failures\": 0\n"));
        assert!(j.contains("\"max_error\": 5.17e-2"), "{j}");

        let named = |corrupt: &dyn Fn(&mut AmrOutcome), needle: &str| {
            let o = crate::cli::assert_names(passing(), corrupt, AmrOutcome::violations, needle);
            assert!(!o.to_json().contains("\"failures\": 0\n"));
        };
        named(
            &|o| o.resolution.retain(|c| c.label != "uniform_fine"),
            "needs the adaptive, uniform_fine",
        );
        named(
            &|o| o.resolution[1].cell_updates = 0,
            "resolution uniform_fine: non-positive",
        );
        named(&|o| o.resolution[2].dt = 1e-3, "disagree on dt");
        named(&|o| o.resolution[0].cell_updates = 600_000, "not under 60%");
        named(&|o| o.resolution[0].max_error = 6e-2, "exceeds 1.1x");
        named(
            &|o| o.resolution[2].max_error = 6e-2,
            "does not clearly beat",
        );
        named(&|o| o.adaptive.stats.regrids = 1, "only 1 regrid(s)");
        named(
            &|o| o.adaptive.stats.verified_clean = 7,
            "7 of 8 recompiles",
        );
        named(
            &|o| o.adaptive.stats.lookahead_violations = 1,
            "1 lookahead finding",
        );
        named(&|o| o.adaptive.fine_window_frac = 1.0, "not selective");
        named(&|o| o.identity.truncate(2), "only 2 execution policies");
        named(
            &|o| o.identity[1].bit_identical = false,
            "byte_identity scalar_kernel: adaptive run diverged",
        );
        named(
            &|o| o.restart.restart_identical = false,
            "restart: restored run diverged",
        );
        named(&|o| o.restart.tail_regrids = 0, "the proof is vacuous");
        named(&|o| o.rebalance.rebalances = 0, "rebalance: 0 applied");
        named(&|o| o.rebalance.gain_frac = 0.0, "not an improvement");
    }
}
