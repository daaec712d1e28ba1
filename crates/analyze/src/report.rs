//! Findings and the analysis report: severities, kinds, rendering, JSON.

use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not a proof of misbehaviour (e.g. a send nobody
    /// receives — wasted bandwidth, not a race).
    Warning,
    /// A proved violation of the schedule's correctness contract.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// What class of problem a finding reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// Two unordered tasks write overlapping cells of the same variable.
    WriteWriteRace,
    /// An unordered read/write pair touches overlapping cells.
    ReadWriteRace,
    /// The happens-before relation contains a cycle: no valid execution.
    Deadlock,
    /// A recv whose message no send produces: the rank waits forever.
    OrphanRecv,
    /// A send whose message no recv consumes: wasted wire traffic.
    UnconsumedSend,
    /// A tile's staged working set exceeds the LDM byte budget.
    LdmOverflow,
    /// Two tiles of one plan write the same output cell.
    TileOverlap,
    /// Cells of the output box no tile covers.
    TileGap,
    /// A tile extends outside the output box.
    TileOutOfBounds,
    /// A cross-CG channel whose minimum modeled delivery latency is below
    /// the configured PDES lookahead: a message could land inside an
    /// already-drained window (the `merge_outboxes` violation), so the
    /// configuration must be rejected before the run starts.
    LookaheadUnsafe,
}

impl FindingKind {
    /// Stable machine-readable name used in the JSON report.
    pub fn code(&self) -> &'static str {
        match self {
            FindingKind::WriteWriteRace => "write_write_race",
            FindingKind::ReadWriteRace => "read_write_race",
            FindingKind::Deadlock => "deadlock",
            FindingKind::OrphanRecv => "orphan_recv",
            FindingKind::UnconsumedSend => "unconsumed_send",
            FindingKind::LdmOverflow => "ldm_overflow",
            FindingKind::TileOverlap => "tile_overlap",
            FindingKind::TileGap => "tile_gap",
            FindingKind::TileOutOfBounds => "tile_out_of_bounds",
            FindingKind::LookaheadUnsafe => "lookahead_unsafe",
        }
    }
}

/// One diagnostic produced by the analyzer.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Problem class.
    pub kind: FindingKind,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description naming tasks, regions, and byte counts.
    pub message: String,
    /// Labels of the tasks involved (empty for tile-plan findings).
    pub tasks: Vec<String>,
    /// Structured key/value details for the JSON report.
    pub extra: Vec<(String, String)>,
}

impl Finding {
    /// A finding with no tasks or extra details yet.
    pub fn new(kind: FindingKind, severity: Severity, message: impl Into<String>) -> Finding {
        Finding {
            kind,
            severity,
            message: message.into(),
            tasks: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Attach an involved task's label.
    pub fn task(mut self, label: impl Into<String>) -> Finding {
        self.tasks.push(label.into());
        self
    }

    /// Attach a structured detail.
    pub fn extra(mut self, key: impl Into<String>, val: impl Into<String>) -> Finding {
        self.extra.push((key.into(), val.into()));
        self
    }
}

/// The verdict for one analyzed schedule.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Name of the analyzed configuration.
    pub name: String,
    /// Scheduler variant name.
    pub variant: String,
    /// Number of tasks in the model.
    pub n_tasks: usize,
    /// Number of happens-before edges (schedule + matched messages).
    pub n_edges: usize,
    /// Conflicting access pairs the hazard scan examined.
    pub pairs_checked: u64,
    /// Tile plans verified.
    pub tile_plans: usize,
    /// Tiles across all verified plans.
    pub tiles_checked: usize,
    /// Everything the analyzer flagged.
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// Whether the schedule is proved hazard-free (warnings allowed).
    pub fn is_clean(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Count of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "analyze {} [{}]: {} tasks, {} edges, {} access pairs, {} tile plans ({} tiles)\n",
            self.name,
            self.variant,
            self.n_tasks,
            self.n_edges,
            self.pairs_checked,
            self.tile_plans,
            self.tiles_checked,
        );
        if self.findings.is_empty() {
            s.push_str("  clean: all conflicting accesses ordered, all tiles fit\n");
        }
        for f in &self.findings {
            s.push_str(&format!(
                "  {} [{}]: {}\n",
                f.severity,
                f.kind.code(),
                f.message
            ));
            for t in &f.tasks {
                s.push_str(&format!("    task: {t}\n"));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_means_no_errors() {
        let mut r = AnalysisReport {
            name: "t".into(),
            variant: "v".into(),
            n_tasks: 1,
            n_edges: 0,
            pairs_checked: 0,
            tile_plans: 0,
            tiles_checked: 0,
            findings: vec![Finding::new(
                FindingKind::UnconsumedSend,
                Severity::Warning,
                "w",
            )],
        };
        assert!(r.is_clean());
        r.findings
            .push(Finding::new(FindingKind::Deadlock, Severity::Error, "e"));
        assert!(!r.is_clean());
        assert_eq!(r.errors(), 1);
    }

    #[test]
    fn render_mentions_findings() {
        let r = AnalysisReport {
            name: "t".into(),
            variant: "v".into(),
            n_tasks: 0,
            n_edges: 0,
            pairs_checked: 0,
            tile_plans: 0,
            tiles_checked: 0,
            findings: vec![
                Finding::new(FindingKind::OrphanRecv, Severity::Error, "no sender").task("recv(x)"),
            ],
        };
        let s = r.render();
        assert!(s.contains("orphan_recv"), "{s}");
        assert!(s.contains("task: recv(x)"), "{s}");
    }
}
