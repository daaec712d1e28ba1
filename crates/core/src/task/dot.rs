//! Graphviz (DOT) export of the distributed task graph.
//!
//! Renders what the schedulers execute (paper Fig 1/2): one node per
//! `(patch, stage)` task, clustered by owning rank, with stage-chain edges,
//! same-rank ghost dependencies (data-warehouse copies), and cross-rank
//! ghost dependencies (MPI messages, drawn dashed). Useful for inspecting a
//! decomposition before a run and for documentation.

use std::fmt::Write as _;

use crate::grid::Level;
use crate::task::plan::build_rank_plans;

/// Render the task graph of one timestep as DOT.
///
/// `assignment` maps patch to rank; `stages` is the application's stage
/// count (see `Application::stages`).
pub fn task_graph_dot(level: &Level, assignment: &[usize], stages: usize) -> String {
    assert!(stages >= 1);
    assert_eq!(assignment.len(), level.n_patches());
    let n_ranks = assignment.iter().copied().max().unwrap_or(0) + 1;
    let mut out = String::new();
    let _ = writeln!(out, "digraph task_graph {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box, fontsize=10];");
    // Task nodes, clustered by rank.
    for r in 0..n_ranks {
        let _ = writeln!(out, "  subgraph cluster_rank{r} {{");
        let _ = writeln!(out, "    label=\"rank {r} (CG {r})\";");
        for (p, &pr) in assignment.iter().enumerate() {
            if pr != r {
                continue;
            }
            for s in 0..stages {
                let _ = writeln!(out, "    t_{p}_{s} [label=\"patch {p}\\nstage {s}\"];");
            }
        }
        let _ = writeln!(out, "  }}");
    }
    // Stage chains within a patch.
    for p in 0..level.n_patches() {
        for s in 1..stages {
            let _ = writeln!(out, "  t_{p}_{} -> t_{p}_{s};", s - 1);
        }
    }
    // Ghost dependencies: neighbor stage s-1 output feeds stage s (stage 0
    // reads the previous step's data, drawn as dotted self-level inputs is
    // omitted — only intra-step edges are interesting).
    for plan in build_rank_plans(level, assignment, n_ranks, 1) {
        for s in 1..stages {
            for prep in plan.prep.values() {
                for lc in &prep.local_copies {
                    let _ = writeln!(
                        out,
                        "  t_{}_{} -> t_{}_{s} [color=gray50];",
                        lc.src_patch,
                        s - 1,
                        lc.dst_patch
                    );
                }
            }
            for rv in &plan.recvs {
                let _ = writeln!(
                    out,
                    "  t_{}_{} -> t_{}_{s} [style=dashed, label=\"MPI\", fontsize=8];",
                    rv.src_patch,
                    s - 1,
                    rv.dst_patch
                );
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::iv;
    use crate::lb::LoadBalancer;

    #[test]
    fn dot_has_every_task_node_and_stage_chain() {
        let level = Level::new(iv(4, 4, 4), iv(2, 2, 1)); // 4 patches
        let a = LoadBalancer::Block.assign(&level, 2);
        let dot = task_graph_dot(&level, &a, 3);
        // 4 patches x 3 stages = 12 nodes.
        for p in 0..4 {
            for s in 0..3 {
                assert!(dot.contains(&format!("t_{p}_{s} [label=")), "node {p}/{s}");
            }
        }
        // 2 stage-chain edges per patch.
        assert_eq!(
            dot.matches("-> t_0_1;").count() + dot.matches("-> t_0_2;").count(),
            2
        );
        // Clusters for both ranks; dashed MPI edges exist across ranks.
        assert!(dot.contains("cluster_rank0") && dot.contains("cluster_rank1"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.starts_with("digraph") && dot.trim_end().ends_with('}'));
    }

    #[test]
    fn single_stage_single_rank_has_no_intra_step_edges() {
        let level = Level::new(iv(4, 4, 4), iv(2, 1, 1));
        let a = LoadBalancer::Block.assign(&level, 1);
        let dot = task_graph_dot(&level, &a, 1);
        assert!(!dot.contains("->"), "no dependencies to draw:\n{dot}");
        assert!(dot.contains("t_0_0") && dot.contains("t_1_0"));
    }
}
