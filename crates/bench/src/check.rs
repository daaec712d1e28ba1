//! `repro check`: the concurrency-checker campaign (DESIGN.md §15).
//!
//! Three cooperating analyses over the PDES core, recorded together in
//! `results/CHECK.json`:
//!
//! * **static** — for every paper problem the compiled plan channels are
//!   proved safe against the default lookahead
//!   ([`uintah_core::prove_lookahead_for_plans`]), plus a deliberate
//!   counter-demonstration: a lookahead one picosecond past the proved
//!   minimum is flagged statically *and* refused by the machine's outbox
//!   merge at exactly the same picosecond (`machine_agrees`);
//! * **dynamic** — instrumented runs (the committed-trace configurations
//!   plus a fresh sweep) are replayed through the vector-clock race
//!   detector and the static/dynamic differential
//!   ([`uintah_core::race_check`]); every case must come back clean;
//! * **dpor** — small functional configs are re-run under forced
//!   per-window drain-order permutations drawn from the window message
//!   graph's equivalence classes ([`sw_sim::WindowGraph`]); every explored
//!   interleaving must reproduce the baseline warehouse bit-for-bit.
//!
//! [`CheckOutcome::violations`] is the gate: all three analyses ran on
//! non-vacuous inputs, zero findings, ≥ 50 interleavings explored.

use std::sync::Arc;

use sw_sim::{Machine, SimTime, WindowGraph};
use sw_telemetry::json::{
    arr, obj, Json,
    Layout::{Block, Row},
};
use uintah_core::{iv, prove_lookahead_for_plans, race_check, ExecMode, Level, RunConfig, Variant};

use crate::problems::{PROBLEMS, SMALL};
use crate::runner::{burgers, plans, STAGES};
use crate::scale::extension_level;

/// One statically proved (problem, cgs) configuration.
pub struct StaticCell {
    /// Problem name.
    pub problem: &'static str,
    /// Ranks the plans were compiled for.
    pub cgs: usize,
    /// Cross-CG channels the proof covered.
    pub channels: usize,
    /// Minimum modeled delivery latency over all channels, ps
    /// (`u64::MAX` when the configuration has no cross-CG traffic).
    pub min_latency_ps: u64,
    /// Lookahead the proof was evaluated against, ps.
    pub lookahead_ps: u64,
    /// Whether every channel satisfied `min_latency >= lookahead`.
    pub safe: bool,
}

/// The deliberate unsafe-lookahead demonstration: static proof and machine
/// model agreeing on the violation boundary to the picosecond.
pub struct UnsafeDemo {
    /// The provably unsafe lookahead (proved minimum + 1), ps.
    pub lookahead_ps: u64,
    /// The proved minimum delivery latency, ps.
    pub min_latency_ps: u64,
    /// `lookahead_unsafe` findings the proof emitted (must be ≥ 1).
    pub findings: usize,
    /// Where the machine actually delivered the tightest channel's
    /// packet, ps.
    pub machine_deliver_ps: u64,
    /// Machine delivered exactly at the proved minimum, refused the merge
    /// one ps past it, and accepted the merge at it.
    pub machine_agrees: bool,
}

/// One dynamically race-checked run.
pub struct DynCell {
    /// Variant name (Table IV).
    pub variant: &'static str,
    /// Ranks.
    pub cgs: usize,
    /// Timesteps.
    pub steps: u32,
    /// Telemetry events the happens-before relation covered.
    pub events: usize,
    /// Warehouse access spans extracted from the trace.
    pub accesses: usize,
    /// Conflicting same-resource pairs compared.
    pub pairs_checked: u64,
    /// `MsgPosted -> MsgDelivered` edges honored (and differentially
    /// checked against the compiled plans).
    pub msg_edges: usize,
    /// Unordered conflicting pairs found (must be 0).
    pub races: usize,
    /// Structural trace defects (must be 0).
    pub structural: usize,
    /// Message edges the static model could not account for (must be 0).
    pub unmatched: usize,
    /// All of the above held.
    pub clean: bool,
}

/// One DPOR-explored configuration.
pub struct DporCell {
    /// Configuration name.
    pub name: &'static str,
    /// Ranks.
    pub ranks: usize,
    /// Timesteps.
    pub steps: u32,
    /// PDES windows the baseline run drained.
    pub windows: usize,
    /// Windows that merged at least one cross-CG message.
    pub message_windows: usize,
    /// Non-equivalent interleavings explored (baseline + replays).
    pub explored: usize,
    /// Forced-order replays executed.
    pub replays: usize,
    /// Every replay reproduced the baseline warehouse and step clock
    /// bit-for-bit.
    pub identical: bool,
}

/// The whole campaign's outcome.
pub struct CheckOutcome {
    /// Static proof sweep.
    pub statics: Vec<StaticCell>,
    /// The unsafe-lookahead demonstration.
    pub unsafe_demo: UnsafeDemo,
    /// Dynamic race-check cases.
    pub dynamics: Vec<DynCell>,
    /// DPOR configurations.
    pub dpors: Vec<DporCell>,
}

impl CheckOutcome {
    /// Interleavings explored across all DPOR configurations.
    pub fn total_explored(&self) -> usize {
        self.dpors.iter().map(|d| d.explored).sum()
    }

    /// Every way the campaign fell short, one line per cell: an unsafe or
    /// vacuous proof, the demo's two paths disagreeing, a trace with
    /// nothing to check or anything found, a diverged or unpermuted DPOR
    /// config, or too little explored overall. Empty = the campaign holds.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.statics.is_empty() {
            v.push("static: no proved configurations".to_string());
        }
        for c in &self.statics {
            let cell = format!("static {} at {} cgs", c.problem, c.cgs);
            if !c.safe {
                v.push(format!(
                    "{cell}: UNSAFE, min latency {} ps < lookahead {} ps",
                    c.min_latency_ps, c.lookahead_ps
                ));
            }
            if c.channels == 0 {
                v.push(format!("{cell}: proved zero channels (vacuous)"));
            }
        }
        let d = &self.unsafe_demo;
        if d.findings < 1 {
            v.push("unsafe_demo: the provably unsafe lookahead produced no findings".to_string());
        }
        if !d.machine_agrees || d.machine_deliver_ps != d.min_latency_ps {
            v.push(format!(
                "unsafe_demo: machine delivered at {} ps, proof predicted {} ps \
                 (machine_agrees={})",
                d.machine_deliver_ps, d.min_latency_ps, d.machine_agrees
            ));
        }
        if self.dynamics.len() < 3 {
            v.push(format!(
                "dynamic: only {} race-checked run(s), need >= 3",
                self.dynamics.len()
            ));
        }
        for c in &self.dynamics {
            let cell = format!("dynamic {}@{}cg", c.variant, c.cgs);
            if c.events == 0 || c.msg_edges == 0 {
                v.push(format!("{cell}: empty trace or no message edges"));
            }
            if c.races != 0 || c.structural != 0 || c.unmatched != 0 || !c.clean {
                v.push(format!(
                    "{cell}: {} race(s), {} structural defect(s), {} unmatched edge(s), clean={}",
                    c.races, c.structural, c.unmatched, c.clean
                ));
            }
        }
        if self.dpors.len() < 3 {
            v.push(format!(
                "dpor: only {} explored config(s), need >= 3",
                self.dpors.len()
            ));
        }
        for c in &self.dpors {
            if c.message_windows == 0 {
                v.push(format!(
                    "dpor {}: no message windows, nothing permuted",
                    c.name
                ));
            }
            if !c.identical {
                v.push(format!(
                    "dpor {}: a forced drain order diverged from the baseline",
                    c.name
                ));
            }
            if c.explored != c.replays + 1 {
                v.push(format!(
                    "dpor {}: explored {} != baseline + {} replays",
                    c.name, c.explored, c.replays
                ));
            }
        }
        if self.total_explored() < 50 {
            v.push(format!(
                "dpor: only {} interleavings explored in total, need >= 50",
                self.total_explored()
            ));
        }
        v
    }
}

/// Prove every paper problem's channel set safe against the default
/// lookahead, at its minimum rank count and at the paper's 128 CGs.
pub fn run_static() -> Vec<StaticCell> {
    let mut cells = Vec::new();
    for p in &PROBLEMS {
        let level = p.level();
        let mut counts = vec![p.min_cgs.max(2)];
        if !counts.contains(&128) {
            counts.push(128);
        }
        for cgs in counts {
            let cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, cgs);
            let plans = plans(&level, &cfg);
            let lookahead = cfg.machine.net_latency.0;
            let (proof, _) = prove_lookahead_for_plans(&plans, &cfg.machine, lookahead);
            cells.push(StaticCell {
                problem: p.name,
                cgs,
                channels: proof.channels.len(),
                min_latency_ps: proof.min_latency_ps,
                lookahead_ps: lookahead,
                safe: proof.safe,
            });
        }
    }
    cells
}

/// The acceptance demonstration: push the lookahead one picosecond past
/// the proved minimum and show the static proof and the machine's outbox
/// merge reject it identically — then show the minimum itself is accepted.
pub fn run_unsafe_demo() -> UnsafeDemo {
    let level = SMALL.level();
    let cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, 2);
    let plans = plans(&level, &cfg);
    let machine = &cfg.machine;
    let (base, _) = prove_lookahead_for_plans(&plans, machine, 0);
    let min = base.min_latency_ps;
    let (proof, findings) = prove_lookahead_for_plans(&plans, machine, min + 1);
    let tight = proof
        .channels
        .iter()
        .min_by_key(|c| c.min_latency_ps)
        .expect("cross-rank plans must have channels");
    // The packet the scheduler actually puts on the wire for this
    // channel: the payload if it is eager, the control header otherwise.
    let wire = if tight.bytes <= machine.eager_limit_bytes as u64 {
        tight.bytes.max(sw_mpi::CTRL_BYTES)
    } else {
        sw_mpi::CTRL_BYTES
    };
    let mut m = Machine::new(machine.clone(), 2);
    let deliver =
        m.ctx(tight.src_rank)
            .net_send(tight.src_rank, tight.dst_rank, wire, SimTime(0), 7);
    let refused = m.merge_outboxes(Some(SimTime(min + 1)));
    let mut m2 = Machine::new(machine.clone(), 2);
    m2.ctx(tight.src_rank)
        .net_send(tight.src_rank, tight.dst_rank, wire, SimTime(0), 7);
    let accepted = m2.merge_outboxes(Some(SimTime(min)));
    UnsafeDemo {
        lookahead_ps: min + 1,
        min_latency_ps: min,
        findings: findings.len(),
        machine_deliver_ps: deliver.0,
        machine_agrees: !proof.safe
            && deliver.0 == min
            && refused.is_err_and(|v| v.at == SimTime(min) && v.src == tight.src_rank)
            && accepted.is_ok(),
    }
}

/// Race-check one instrumented run.
fn dyn_case(level: Level, variant: Variant, cgs: usize, steps: u32) -> DynCell {
    let mut cfg = RunConfig {
        steps,
        ..RunConfig::paper(variant, ExecMode::Model, cgs)
    };
    cfg.options.telemetry = true;
    let plans = plans(&level, &cfg);
    let mut sim = burgers(&level, cfg).expect("a valid race-check run");
    sim.run();
    let rep = race_check(&sim.recorder().snapshot(), &level, &plans, STAGES);
    DynCell {
        variant: variant.name(),
        cgs,
        steps,
        events: rep.hb_events,
        accesses: rep.race.accesses,
        pairs_checked: rep.race.pairs_checked,
        msg_edges: rep.msg_edges,
        races: rep.race.races.len(),
        structural: rep.structural_errors.len(),
        unmatched: rep.unmatched_edges.len(),
        clean: rep.is_clean(),
    }
}

/// The dynamic sweep: the three committed-trace configurations (the exact
/// runs behind `results/TRACE_*.perfetto.json`), fresh variant/scale
/// points, and the 1024-patch extension at one rank per four patches.
pub fn run_dynamic() -> Vec<DynCell> {
    let mut cells = Vec::new();
    // The committed Perfetto traces: SMALL, 4 CGs, 5 steps.
    for v in [
        Variant::ACC_SYNC,
        Variant::ACC_ASYNC,
        Variant::ACC_SIMD_ASYNC,
    ] {
        cells.push(dyn_case(SMALL.level(), v, 4, 5));
    }
    // Fresh sweep: the MPE-only path and a wider async run.
    cells.push(dyn_case(SMALL.level(), Variant::HOST_SYNC, 2, 3));
    cells.push(dyn_case(SMALL.level(), Variant::ACC_ASYNC, 8, 3));
    // Past the paper: 256 CGs, ~770 logical threads in one relation.
    cells.push(dyn_case(extension_level().1, Variant::ACC_ASYNC, 256, 2));
    cells
}

/// A tiny DPOR configuration: a functional run small enough to replay
/// dozens of times.
struct DporConfig {
    name: &'static str,
    extent: uintah_core::IntVec,
    layout: uintah_core::IntVec,
    ranks: usize,
    steps: u32,
    /// Maximum forced-order replays for this configuration.
    budget: usize,
}

/// Explore one configuration: baseline serial run with the merge log on,
/// then one replay per non-identity drain-order class per message window
/// (up to the budget), each asserted bit-identical to the baseline.
fn dpor_explore(c: &DporConfig) -> DporCell {
    let level = Level::new(c.extent, c.layout);
    let cfg = RunConfig {
        steps: c.steps,
        ..RunConfig::paper(Variant::HOST_SYNC, ExecMode::Functional, c.ranks)
    };
    let mut sim = burgers(
        &level,
        RunConfig {
            window_log: true,
            ..cfg.clone()
        },
    )
    .expect("a valid DPOR baseline");
    let base_report = sim.run();
    let base_bits = sim.solution_bits();
    let base_steps: Vec<u64> = base_report.step_end.iter().map(|t| t.0).collect();
    let windows = sim.window_edges().to_vec();
    let ascending: Vec<usize> = (0..c.ranks).collect();

    let mut replays = 0usize;
    let mut identical = true;
    'outer: for (w, edges) in windows.iter().enumerate() {
        if edges.is_empty() {
            continue;
        }
        let graph = WindowGraph::from_messages(edges);
        if graph.n_edges() == 0 {
            continue;
        }
        for order in graph.class_orders(graph.n_classes(), c.ranks) {
            if order == ascending {
                continue; // the baseline already covers the identity class
            }
            if replays >= c.budget {
                break 'outer;
            }
            let mut orders = vec![ascending.clone(); w];
            orders.push(order);
            let forced = RunConfig {
                pdes_order: Some(Arc::new(orders)),
                ..cfg.clone()
            };
            let mut sim2 = burgers(&level, forced).expect("a valid DPOR replay");
            let rep2 = sim2.run();
            let steps2: Vec<u64> = rep2.step_end.iter().map(|t| t.0).collect();
            identical &= sim2.solution_bits() == base_bits && steps2 == base_steps;
            replays += 1;
        }
    }
    DporCell {
        name: c.name,
        ranks: c.ranks,
        steps: c.steps,
        windows: windows.len(),
        message_windows: windows.iter().filter(|e| !e.is_empty()).count(),
        explored: 1 + replays,
        replays,
        identical,
    }
}

/// The DPOR sweep: three small configurations with distinct message
/// graphs (a 2-rank line, a 4-rank 2x2 ring, a 2-rank run over a deeper
/// level), together exploring ≥ 50 non-equivalent interleavings.
pub fn run_dpor() -> Vec<DporCell> {
    let configs = [
        DporConfig {
            name: "line2",
            extent: iv(8, 8, 16),
            layout: iv(2, 1, 1),
            ranks: 2,
            steps: 4,
            budget: 8,
        },
        DporConfig {
            name: "ring4",
            extent: iv(8, 8, 16),
            layout: iv(2, 2, 1),
            ranks: 4,
            steps: 5,
            budget: 48,
        },
        DporConfig {
            name: "line2-deep",
            extent: iv(8, 8, 32),
            layout: iv(2, 2, 1),
            ranks: 2,
            steps: 4,
            budget: 8,
        },
    ];
    configs.iter().map(dpor_explore).collect()
}

/// Run the whole campaign.
pub fn run_check() -> CheckOutcome {
    CheckOutcome {
        statics: run_static(),
        unsafe_demo: run_unsafe_demo(),
        dynamics: run_dynamic(),
        dpors: run_dpor(),
    }
}

/// Render `CHECK.json`.
pub fn check_json(o: &CheckOutcome) -> String {
    let statics = o.statics.iter().map(|c| {
        obj(
            Row,
            [
                ("problem", c.problem.into()),
                ("cgs", c.cgs.into()),
                ("channels", c.channels.into()),
                ("min_latency_ps", c.min_latency_ps.into()),
                ("lookahead_ps", c.lookahead_ps.into()),
                ("safe", c.safe.into()),
            ],
        )
    });
    let d = &o.unsafe_demo;
    let demo = obj(
        Row,
        [
            ("lookahead_ps", d.lookahead_ps.into()),
            ("min_latency_ps", d.min_latency_ps.into()),
            ("findings", d.findings.into()),
            ("machine_deliver_ps", d.machine_deliver_ps.into()),
            ("machine_agrees", d.machine_agrees.into()),
        ],
    );
    let dynamics = o.dynamics.iter().map(|c| {
        obj(
            Row,
            [
                ("variant", Json::from(c.variant)),
                ("cgs", c.cgs.into()),
                ("steps", c.steps.into()),
                ("events", c.events.into()),
                ("accesses", c.accesses.into()),
                ("pairs_checked", c.pairs_checked.into()),
                ("msg_edges", c.msg_edges.into()),
                ("races", c.races.into()),
                ("structural", c.structural.into()),
                ("unmatched", c.unmatched.into()),
                ("clean", c.clean.into()),
            ],
        )
    });
    let dpors = o.dpors.iter().map(|c| {
        obj(
            Row,
            [
                ("name", Json::from(c.name)),
                ("ranks", c.ranks.into()),
                ("steps", c.steps.into()),
                ("windows", c.windows.into()),
                ("message_windows", c.message_windows.into()),
                ("explored", c.explored.into()),
                ("replays", c.replays.into()),
                ("identical", c.identical.into()),
            ],
        )
    });
    let doc = obj(
        Block,
        [
            ("generated_by", "repro check".into()),
            (
                "static",
                obj(
                    Block,
                    [
                        ("configs", arr(Block, statics)),
                        ("unsafe_demo", demo),
                        ("all_safe", o.statics.iter().all(|c| c.safe).into()),
                    ],
                ),
            ),
            (
                "dynamic",
                obj(
                    Block,
                    [
                        ("cases", arr(Block, dynamics)),
                        ("all_clean", o.dynamics.iter().all(|c| c.clean).into()),
                    ],
                ),
            ),
            (
                "dpor",
                obj(
                    Block,
                    [
                        ("configs", arr(Block, dpors)),
                        ("total_explored", o.total_explored().into()),
                        ("all_identical", o.dpors.iter().all(|c| c.identical).into()),
                    ],
                ),
            ),
            ("ok", o.violations().is_empty().into()),
        ],
    );
    doc.render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_demo_static_and_machine_agree() {
        let d = run_unsafe_demo();
        assert!(d.findings >= 1, "the proof must flag the unsafe lookahead");
        assert_eq!(d.machine_deliver_ps, d.min_latency_ps);
        assert!(d.machine_agrees);
    }

    #[test]
    fn small_problems_prove_safe_at_the_default_lookahead() {
        let level = SMALL.level();
        let cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, 4);
        let plans = plans(&level, &cfg);
        let (proof, findings) =
            prove_lookahead_for_plans(&plans, &cfg.machine, cfg.machine.net_latency.0);
        assert!(proof.safe, "{proof:?}");
        assert!(findings.is_empty());
    }

    #[test]
    fn fresh_traced_run_is_race_free() {
        let c = dyn_case(SMALL.level(), Variant::ACC_ASYNC, 2, 2);
        assert!(
            c.clean,
            "races {} structural {} unmatched {}",
            c.races, c.structural, c.unmatched
        );
        assert!(c.events > 0 && c.accesses > 0 && c.msg_edges > 0);
    }

    #[test]
    fn dpor_replays_are_bit_identical() {
        let cell = dpor_explore(&DporConfig {
            name: "test",
            extent: iv(8, 8, 16),
            layout: iv(2, 1, 1),
            ranks: 2,
            steps: 2,
            budget: 3,
        });
        assert!(cell.identical);
        assert!(
            cell.replays >= 1,
            "tiny config must still permute something"
        );
        assert_eq!(cell.explored, cell.replays + 1);
    }

    /// A minimal outcome that holds every invariant.
    fn passing() -> CheckOutcome {
        let dynamic = |variant| DynCell {
            variant,
            cgs: 2,
            steps: 2,
            events: 10,
            accesses: 4,
            pairs_checked: 3,
            msg_edges: 2,
            races: 0,
            structural: 0,
            unmatched: 0,
            clean: true,
        };
        let dpor = |name, explored| DporCell {
            name,
            ranks: 2,
            steps: 2,
            windows: 9,
            message_windows: 3,
            explored,
            replays: explored - 1,
            identical: true,
        };
        CheckOutcome {
            statics: vec![StaticCell {
                problem: "p",
                cgs: 2,
                channels: 4,
                min_latency_ps: 1_008_000,
                lookahead_ps: 1_000_000,
                safe: true,
            }],
            unsafe_demo: UnsafeDemo {
                lookahead_ps: 2,
                min_latency_ps: 1,
                findings: 1,
                machine_deliver_ps: 1,
                machine_agrees: true,
            },
            dynamics: vec![
                dynamic("acc.sync"),
                dynamic("acc.async"),
                dynamic("host.sync"),
            ],
            dpors: vec![dpor("line2", 4), dpor("ring4", 44), dpor("deep", 4)],
        }
    }

    #[test]
    fn violations_name_the_corrupted_cell() {
        let o = passing();
        assert_eq!(o.violations(), Vec::<String>::new());
        assert_eq!(o.total_explored(), 52);
        assert!(check_json(&o).contains("\"ok\": true"));

        let named = |corrupt: &dyn Fn(&mut CheckOutcome), needle: &str| {
            let o = crate::cli::assert_names(passing(), corrupt, CheckOutcome::violations, needle);
            assert!(check_json(&o).contains("\"ok\": false"));
        };
        named(&|o| o.statics[0].safe = false, "static p at 2 cgs: UNSAFE");
        named(&|o| o.statics[0].channels = 0, "zero channels");
        named(&|o| o.statics.clear(), "no proved configurations");
        named(&|o| o.dpors.truncate(2), "only 2 explored config(s)");
        named(&|o| o.unsafe_demo.findings = 0, "unsafe_demo");
        named(
            &|o| o.unsafe_demo.machine_deliver_ps = 7,
            "delivered at 7 ps",
        );
        named(&|o| o.dynamics.truncate(2), "only 2 race-checked");
        named(
            &|o| o.dynamics[1].races = 1,
            "dynamic acc.async@2cg: 1 race",
        );
        named(
            &|o| o.dynamics[2].msg_edges = 0,
            "dynamic host.sync@2cg: empty",
        );
        named(
            &|o| o.dpors[1].identical = false,
            "dpor ring4: a forced drain",
        );
        named(
            &|o| o.dpors[0].message_windows = 0,
            "dpor line2: no message",
        );
        named(&|o| o.dpors[2].replays = 0, "dpor deep: explored 4");
        named(
            &|o| o.dpors[1].explored = 4,
            "interleavings explored in total",
        );
    }
}
