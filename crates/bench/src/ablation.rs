//! Ablation experiments for the design choices DESIGN.md calls out and the
//! paper's §IX future-work extensions.
//!
//! These go beyond the paper's evaluation: each isolates one mechanism of
//! the scheduler or machine model and reports its contribution.

use sw_math::ExpKind;
use uintah_core::{LoadBalancer, SchedulerOptions, SimDur, Variant};

use crate::problems::{MEDIUM, SMALL};
use crate::runner::{paper_cell, Runner};
use crate::table::{pct, secs, TextTable};

/// §IX extensions: double-buffered DMA, packed tiles, CPE grouping.
pub fn ablation_extensions(runner: &mut Runner) -> TextTable {
    let mut t = TextTable::new(vec![
        "Configuration",
        "small t/step",
        "medium t/step",
        "vs base",
    ]);
    let cases: Vec<(&str, SchedulerOptions)> = vec![
        ("paper baseline", SchedulerOptions::default()),
        (
            "+ double-buffered DMA",
            SchedulerOptions {
                double_buffer: true,
                ..Default::default()
            },
        ),
        (
            "+ packed tiles",
            SchedulerOptions {
                packed_tiles: true,
                ..Default::default()
            },
        ),
        (
            "+ both",
            SchedulerOptions {
                double_buffer: true,
                packed_tiles: true,
                ..Default::default()
            },
        ),
        (
            "2 CPE groups",
            SchedulerOptions {
                cpe_groups: 2,
                ..Default::default()
            },
        ),
        (
            "4 CPE groups",
            SchedulerOptions {
                cpe_groups: 4,
                ..Default::default()
            },
        ),
    ];
    let base_med = runner
        .run(&paper_cell(MEDIUM, Variant::ACC_SIMD_ASYNC, 8))
        .clone();
    for (name, options) in cases {
        let [small, med] = [SMALL, MEDIUM].map(|p| {
            let mut cell = paper_cell(p, Variant::ACC_SIMD_ASYNC, 8);
            cell.1.options = options;
            runner.run(&cell).clone()
        });
        t.row(vec![
            name.to_string(),
            secs(small.time_per_step().as_secs_f64()),
            secs(med.time_per_step().as_secs_f64()),
            format!("{:.2}x", med.boost_over(&base_med)),
        ]);
    }
    t
}

/// The synchronous-spin memory-contention penalty: how much of the async
/// advantage comes from it vs from genuine overlap.
pub fn ablation_spin_penalty(runner: &mut Runner) -> TextTable {
    let mut t = TextTable::new(vec![
        "spin penalty",
        "sync t/step",
        "async t/step",
        "async gain",
    ]);
    for c in [0.0, 0.06, 0.20] {
        let [sync, asyn] = [Variant::ACC_SYNC, Variant::ACC_ASYNC].map(|v| {
            let mut cell = paper_cell(MEDIUM, v, 8);
            cell.1.machine.sync_spin_slowdown = c;
            runner.run(&cell).clone()
        });
        t.row(vec![
            format!("{:.0}%", c * 100.0),
            secs(sync.time_per_step().as_secs_f64()),
            secs(asyn.time_per_step().as_secs_f64()),
            pct(asyn.improvement_over(&sync)),
        ]);
    }
    t
}

/// Completion-flag poll granularity: the async scheduler's detection delay.
pub fn ablation_poll_interval(runner: &mut Runner) -> TextTable {
    let mut t = TextTable::new(vec![
        "poll interval",
        "8 CGs t/step",
        "128 CGs t/step",
        "128-CG gain vs sync",
    ]);
    for us in [100.0, 900.0, 3000.0] {
        let [a8, a128, s128] = [
            (Variant::ACC_ASYNC, 8),
            (Variant::ACC_ASYNC, 128),
            (Variant::ACC_SYNC, 128),
        ]
        .map(|(v, n)| {
            let mut cell = paper_cell(SMALL, v, n);
            cell.1.machine.flag_poll_interval = SimDur::from_us(us);
            runner.run(&cell).clone()
        });
        t.row(vec![
            format!("{us:.0} us"),
            secs(a8.time_per_step().as_secs_f64()),
            secs(a128.time_per_step().as_secs_f64()),
            pct(a128.improvement_over(&s128)),
        ]);
    }
    t
}

/// Load balancers: surface locality vs communication volume and time.
pub fn ablation_load_balancer(runner: &mut Runner) -> TextTable {
    let mut t = TextTable::new(vec!["balancer", "messages", "net bytes", "t/step"]);
    for (name, lb) in [
        ("Block", LoadBalancer::Block),
        ("Morton", LoadBalancer::Morton),
        ("RoundRobin", LoadBalancer::RoundRobin),
    ] {
        let mut cell = paper_cell(MEDIUM, Variant::ACC_SIMD_ASYNC, 16);
        cell.1.lb = lb;
        let r = runner.run(&cell);
        t.row(vec![
            name.to_string(),
            r.messages.to_string(),
            r.net_bytes.to_string(),
            secs(r.time_per_step().as_secs_f64()),
        ]);
    }
    t
}

/// The two software exp libraries (§VI-C): accuracy vs speed.
pub fn ablation_exp_library(runner: &mut Runner) -> TextTable {
    let mut t = TextTable::new(vec!["exp library", "flops/step", "t/step", "Gflop/s"]);
    for (name, exp) in [
        ("fast", ExpKind::Fast),
        ("IEEE (accurate)", ExpKind::Accurate),
    ] {
        let mut cell = paper_cell(MEDIUM, Variant::ACC_SIMD_ASYNC, 8);
        cell.1.variant.exp = exp;
        let r = runner.run(&cell);
        t.row(vec![
            name.to_string(),
            (r.flops.total() / u64::from(r.steps)).to_string(),
            secs(r.time_per_step().as_secs_f64()),
            format!("{:.1}", r.gflops()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_penalty_zero_still_leaves_overlap_gain() {
        // With the contention knob at zero, the async win must come purely
        // from overlap and still be positive: the mechanism is real, not an
        // artifact of the calibration constant.
        let mut runner = Runner::new();
        let [a, s] = [Variant::ACC_ASYNC, Variant::ACC_SYNC].map(|v| {
            let mut cell = paper_cell(MEDIUM, v, 8);
            cell.1.machine.sync_spin_slowdown = 0.0;
            runner.run(&cell).clone()
        });
        let gain = a.improvement_over(&s);
        assert!(gain > 0.05, "pure-overlap gain {gain}");
    }

    #[test]
    fn accurate_exp_is_slower_and_does_more_flops() {
        let mut runner = Runner::new();
        let [fast, acc] = [ExpKind::Fast, ExpKind::Accurate].map(|exp| {
            let mut cell = paper_cell(SMALL, Variant::ACC_SIMD_ASYNC, 8);
            cell.1.variant.exp = exp;
            runner.run(&cell).clone()
        });
        assert!(acc.total_time > fast.total_time);
        assert!(acc.flops.total() > fast.flops.total());
    }
}
