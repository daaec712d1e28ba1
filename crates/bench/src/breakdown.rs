//! Where the MPE's time goes: a per-variant breakdown of the management
//! core's busy time — the analysis behind the paper's claim that the
//! asynchronous scheduler "reduces the overall wait time" (§V-C).

use uintah_core::schedule::rank::MpeBreakdown;
use uintah_core::{ExecMode, RunConfig, Variant};

use crate::problems::ProblemSpec;
use crate::runner::burgers;
use crate::table::{pct, secs, TextTable};

/// Run one case and aggregate the MPE breakdown over all ranks, plus the
/// run's total MPE-seconds available (ranks x wall time) and its wall time
/// per step.
pub fn measure(p: &ProblemSpec, variant: Variant, n_cgs: usize) -> (MpeBreakdown, f64, f64) {
    let cfg = RunConfig::paper(variant, ExecMode::Model, n_cgs);
    let mut sim = burgers(&p.level(), cfg).expect("a valid breakdown case");
    let report = sim.run();
    let mut agg = MpeBreakdown::default();
    for r in 0..n_cgs {
        let b = sim.rank_stats(r).mpe;
        agg.task_mgmt += b.task_mgmt;
        agg.copies += b.copies;
        agg.boundary += b.boundary;
        agg.mpi += b.mpi;
        agg.spin += b.spin;
        agg.kernel += b.kernel;
    }
    let wall = report.total_time.as_secs_f64();
    (agg, wall * n_cgs as f64, wall / f64::from(report.steps))
}

/// The breakdown table for one problem/CG count across the Table IV
/// variants.
pub fn breakdown_table(p: &ProblemSpec, n_cgs: usize) -> TextTable {
    let mut t = TextTable::new(vec![
        "variant",
        "t/step",
        "MPE busy",
        "task mgmt",
        "copies",
        "boundary",
        "MPI",
        "spin",
        "kernel",
    ]);
    for v in Variant::TABLE_IV {
        let (b, avail, per_step) = measure(p, v, n_cgs);
        let share = |d: sw_sim::SimDur| pct(d.as_secs_f64() / avail);
        t.row(vec![
            v.name().to_string(),
            secs(per_step),
            pct(b.total().as_secs_f64() / avail),
            share(b.task_mgmt),
            share(b.copies),
            share(b.boundary),
            share(b.mpi),
            share(b.spin),
            share(b.kernel),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::MEDIUM;

    #[test]
    fn breakdown_accounts_for_all_mpe_busy_time() {
        // The categorized totals must equal the MPE clock's busy total for
        // every variant — nothing consumed without a category.
        for v in Variant::TABLE_IV {
            let cfg = RunConfig::paper(v, ExecMode::Model, 8);
            let mut sim = burgers(&MEDIUM.level(), cfg).unwrap();
            let report = sim.run();
            let mut cat_total = 0.0;
            for r in 0..8 {
                cat_total += sim.rank_stats(r).mpe.total().as_secs_f64();
            }
            let clock_total = report.mpe_busy.as_secs_f64();
            let rel = (cat_total - clock_total).abs() / clock_total;
            assert!(
                rel < 1e-9,
                "{}: categorized {cat_total} vs clock {clock_total}",
                v.name()
            );
        }
    }

    #[test]
    fn sync_spins_and_async_does_not() {
        let (sync, _, _) = measure(MEDIUM, Variant::ACC_SYNC, 8);
        let (asyn, _, _) = measure(MEDIUM, Variant::ACC_ASYNC, 8);
        assert!(sync.spin.as_secs_f64() > 0.0);
        assert_eq!(asyn.spin.as_secs_f64(), 0.0);
        // The async MPE does the same categorized work minus the spin.
        assert!(
            (asyn.task_mgmt.as_secs_f64() - sync.task_mgmt.as_secs_f64()).abs()
                < 0.01 * sync.task_mgmt.as_secs_f64()
        );
    }
}
