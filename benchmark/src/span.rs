//! Spans around calls into the layers, recorded from outside.
//!
//! A span is `(name, job, start, end, parent)`; the name's prefix up to the
//! first `.` is the layer (the crate the call enters, or `bench` for the
//! harness itself). Spans stay in memory and are written once, at exit, as
//! a Chrome trace. A layer's *self time* is its spans' durations minus the
//! part their child spans cover, so the self times of all layers add up to
//! the root span exactly.
//!
//! The tracer is driven from the harness thread only: every call into a
//! layer is made from there, and what a layer does on its own threads is
//! inside that call's span.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::esc;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Identifier shared by all spans of one simulation or campaign pass.
    pub job: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span's time belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; when disabled `span` only runs the closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing (end-to-end runs).
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer (traced runs).
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between repetitions (no span may be
    /// open).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggling the tracer inside a span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through the
    /// tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// All closed spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Which spans lie below (or are) a span called `root`.
    fn under(&self, root: &str) -> Vec<bool> {
        let mut under = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            under[i] = s.name == root || s.parent.is_some_and(|p| under[p]);
        }
        under
    }

    /// Number and total duration (seconds) of the spans called `name`
    /// below the spans called `root`.
    pub fn total_under(&self, root: &str, name: &str) -> (usize, f64) {
        let under = self.under(root);
        let hits = self
            .spans
            .iter()
            .zip(&under)
            .filter(|(s, u)| **u && s.name == name);
        let (n, ns) = hits.fold((0, 0u64), |(n, ns), (s, _)| (n + 1, ns + s.dur_ns()));
        (n, ns as f64 * 1e-9)
    }

    /// Self time per layer, seconds, over the spans below (and including)
    /// the spans called `root`.
    pub fn layer_self_s(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut out = BTreeMap::new();
        for ((s, own), under) in self.spans.iter().zip(own).zip(self.under(root)) {
            if under {
                *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
            }
        }
        out
    }

    /// Render the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self, workload: &str) -> String {
        use std::fmt::Write as _;
        let own = self.self_ns();
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let _ = write!(
            s,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
             \"args\": {{\"name\": \"swbench {}\"}}}}",
            esc(workload)
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
                 \"job\": {}, \"self_us\": {:.3}}}}}",
                esc(sp.name),
                sp.layer(),
                sp.start_ns as f64 / 1e3,
                sp.dur_ns() as f64 / 1e3,
                sp.job,
                own[i] as f64 / 1e3
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::on();
        t.span("bench.rep", 0, |t| {
            t.span("core.run", 1, |t| {
                t.span("telemetry.snapshot", 1, |_| std::hint::black_box(3));
            });
            t.span("core.run", 2, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let total: f64 = t.layer_self_s("bench.rep").values().sum();
        assert!((total - spans[0].dur_ns() as f64 * 1e-9).abs() < 1e-12);
        assert_eq!(t.total_under("bench.rep", "core.run").0, 2);
        assert_eq!(t.total_under("core.run", "core.run").0, 2);
        assert_eq!(t.total_under("telemetry.snapshot", "core.run").0, 0);
        crate::json::Json::parse(&t.chrome_trace("w")).expect("trace is valid JSON");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("core.run", 1, |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
