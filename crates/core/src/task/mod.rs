//! Task declaration and distributed task-graph compilation (paper §II).

pub mod app;
pub mod dot;
pub mod plan;

pub use app::Application;
pub use dot::task_graph_dot;
pub use plan::{
    build_rank_plan, build_rank_plans, ghost_tag, resolve_assignment, GhostRecv, GhostSend,
    LocalCopy, PatchPrep, RankPlan,
};
