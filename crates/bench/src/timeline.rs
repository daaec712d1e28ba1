//! ASCII timeline (Gantt) views of a run: makes the asynchronous
//! scheduler's overlap visible — CPE kernels back-to-back with MPE work
//! hidden underneath, versus the synchronous scheduler's serial
//! prep/kernel/prep/kernel pattern.

use uintah_core::{iv, ExecMode, Level, RunConfig, RunReport, Simulation, Variant};

use crate::runner::burgers;

/// Run `steps` steps of `variant` on `n_ranks` CGs over the timeline's
/// small problem; returns the simulation, its report, and the CPE
/// clusters' utilization (kernel-busy share of ranks x wall time).
fn run(variant: Variant, n_ranks: usize, steps: u32) -> (Simulation, RunReport, f64) {
    let level = Level::new(iv(16, 16, 512), iv(4, 2, 1));
    let cfg = RunConfig {
        steps,
        ..RunConfig::paper(variant, ExecMode::Model, n_ranks)
    };
    let mut sim = burgers(&level, cfg).expect("a valid timeline run");
    let report = sim.run();
    let busy: f64 = (0..n_ranks)
        .flat_map(|r| &sim.rank_stats(r).kernel_spans)
        .map(|&(_, s, e)| e.since(s).as_secs_f64())
        .sum();
    let util = busy / (report.total_time.as_secs_f64() * n_ranks as f64);
    (sim, report, util)
}

/// Render a per-rank kernel timeline of `steps` steps of the given variant
/// on a small problem, `width` characters wide.
pub fn render_timeline(variant: Variant, n_ranks: usize, steps: u32, width: usize) -> String {
    let (sim, report, util) = run(variant, n_ranks, steps);
    let total = report.total_time.as_secs_f64();

    let mut out = String::new();
    out.push_str(&format!(
        "{} on {n_ranks} CGs, {steps} steps, {} total ({} / step)\n",
        variant.name(),
        report.total_time,
        report.time_per_step(),
    ));
    out.push_str("(#: CPE kernel running, .: CPE idle; one row per CG)\n");
    for r in 0..n_ranks {
        let mut row = vec!['.'; width];
        for &(_, s, e) in &sim.rank_stats(r).kernel_spans {
            let a = (s.as_secs_f64() / total * width as f64) as usize;
            let b = ((e.as_secs_f64() / total * width as f64) as usize).min(width);
            for cell in row.iter_mut().take(b).skip(a) {
                *cell = '#';
            }
        }
        out.push_str(&format!("CG{r:<3} {}\n", row.iter().collect::<String>()));
    }
    out.push_str(&format!("CPE-cluster utilization: {:.1}%\n", util * 100.0));
    out
}

/// Utilization of the CPE clusters under a variant (for tests/experiments).
pub fn cpe_utilization(variant: Variant, n_ranks: usize, steps: u32) -> f64 {
    run(variant, n_ranks, steps).2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_keeps_cpes_busier_than_sync() {
        let sync = cpe_utilization(Variant::ACC_SYNC, 2, 3);
        let asyn = cpe_utilization(Variant::ACC_ASYNC, 2, 3);
        assert!(
            asyn > sync,
            "async utilization {asyn:.3} must beat sync {sync:.3}"
        );
        assert!(asyn > 0.5, "async CPEs mostly busy: {asyn:.3}");
    }

    #[test]
    fn timeline_renders_all_ranks() {
        let s = render_timeline(Variant::ACC_SIMD_ASYNC, 2, 2, 60);
        assert!(s.contains("CG0"));
        assert!(s.contains("CG1"));
        assert!(s.contains('#'));
        assert!(s.contains("utilization"));
    }
}
