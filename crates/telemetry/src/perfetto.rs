//! Chrome trace-event ("Perfetto JSON") exporter.
//!
//! Emits a `{"traceEvents": [...]}` document loadable by ui.perfetto.dev
//! and `chrome://tracing`:
//!
//! * one *process* per rank (pid = rank), named `rank N`;
//! * one *thread* per lane within the rank: tid 0 = MPE, tid 1+k = CPE
//!   slot k, tid 99 = the wire track (in-flight packets leaving this rank);
//! * `"X"` complete spans for Task, Offload, DMA, and wire-transit windows,
//!   paired per lane in recording order;
//! * `"i"` instants for protocol events, reductions, barriers, marks;
//! * `"s"`/`"f"` flow arrows connecting each payload's `MsgPosted` on the
//!   sender to its `MsgDelivered` on the receiver (flow id = message id).
//!
//! Timestamps: trace-event `ts`/`dur` are microseconds; virtual picoseconds
//! are emitted as fractional µs (`ps / 1e6`) with sub-ns precision kept.
//!
//! The whole document is appended to **one** pre-sized `String`: no
//! per-event `String`, no `format!` per record, integers by a digit loop.
//! A truncated buffer still exports — a span start with no end, or an end
//! with no start, degrades to a `*.unmatched` / `*.unmatched_end` instant,
//! so nothing is lost.

use std::fmt::Write as _;

use crate::event::{Event, EventRecord, Lane};
use crate::json::esc;

/// Below this many picoseconds [`Out::us`] renders with integers only, and
/// byte-identically to `format!("{:.6}", ps as f64 / 1e6)`: the quotient is
/// under 2^33, so the nearest `f64` is within 2^-21 < 0.5e-6 of the exact
/// six-decimal value and `{:.6}` rounds back to it
/// (`us_is_the_float_rendering` checks it).
const EXACT_US_BELOW: u64 = 1 << 52;

/// Output bytes reserved per record (an instant is ~130 bytes; span starts
/// and no-op polls emit nothing, posts and deliveries emit two events).
const BYTES_PER_RECORD: usize = 128;

/// The one output buffer. Every method appends and returns `self`, so a
/// trace event reads as one chain: opener, name pieces, timestamp, args.
struct Out(String);

impl Out {
    fn s(&mut self, s: &str) -> &mut Self {
        self.0.push_str(s);
        self
    }

    /// `s` as the body of a JSON string.
    fn esc(&mut self, s: &str) -> &mut Self {
        self.0.push_str(&esc(s));
        self
    }

    fn n(&mut self, mut v: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.ascii(&digits[i..])
    }

    fn ascii(&mut self, digits: &[u8]) -> &mut Self {
        self.s(std::str::from_utf8(digits).expect("decimal digits are ASCII"))
    }

    /// ps → trace-event µs with six decimals: `ps / 10^6 '.' ps % 10^6`.
    fn us(&mut self, ps: u64) -> &mut Self {
        if ps >= EXACT_US_BELOW {
            let _ = write!(self.0, "{:.6}", ps as f64 / 1e6);
            return self;
        }
        let mut frac = ps % 1_000_000;
        let mut digits = [b'0'; 6];
        for d in digits.iter_mut().rev() {
            *d += (frac % 10) as u8;
            frac /= 10;
        }
        self.n(ps / 1_000_000).s(".").ascii(&digits)
    }

    /// One `"key": value` args member, comma-separated from the previous.
    fn arg(&mut self, key: &str, v: u64) -> &mut Self {
        if !self.0.ends_with('{') {
            self.s(", ");
        }
        self.s("\"").s(key).s("\": ").n(v)
    }

    /// Open a `ph` event up to its name; the caller appends the name.
    fn open(&mut self, ph: &str, pid: usize, tid: u64) -> &mut Self {
        self.s("  {\"ph\": \"").s(ph).s("\", \"pid\": ");
        self.n(pid as u64)
            .s(", \"tid\": ")
            .n(tid)
            .s(", \"name\": \"")
    }

    /// Open an `"X"` span up to its name.
    fn span(&mut self, pid: usize, tid: u64) -> &mut Self {
        self.open("X", pid, tid)
    }

    /// Open an `"i"` instant up to its name.
    fn instant(&mut self, pid: usize, tid: u64) -> &mut Self {
        self.open("i", pid, tid)
    }

    /// Close a span's name, write its window, open its args.
    fn window(&mut self, start_ps: u64, end_ps: u64) -> &mut Self {
        self.s("\", \"ts\": ").us(start_ps).s(", \"dur\": ");
        // Perfetto hides 0-width spans.
        self.us(end_ps.saturating_sub(start_ps).max(1))
            .s(", \"args\": {")
    }

    /// Close an instant's name, write its time, open its args.
    fn at(&mut self, at_ps: u64) -> &mut Self {
        self.s("\", \"ts\": ")
            .us(at_ps)
            .s(", \"s\": \"t\", \"args\": {")
    }

    /// Close the args and the event.
    fn end(&mut self) {
        self.s("}},\n");
    }

    /// A flow arrow end: `'s'` at the post, `'f'` at the delivery.
    fn flow(&mut self, ph: &str, id: u64, pid: usize, tid: u64, at_ps: u64) {
        self.s("  {\"ph\": \"").s(ph).s("\", \"id\": ").n(id);
        self.s(", \"pid\": ").n(pid as u64).s(", \"tid\": ").n(tid);
        self.s(", \"name\": \"msg\", \"cat\": \"msg\", \"ts\": ")
            .us(at_ps);
        self.s(if ph == "f" {
            ", \"bp\": \"e\"},\n"
        } else {
            "},\n"
        });
    }
}

/// Export per-rank event buffers (as produced by
/// [`crate::Recorder::snapshot`]) to a Chrome trace-event JSON document.
pub fn export(ranks: &[Vec<EventRecord>]) -> String {
    let records: usize = ranks.iter().map(Vec::len).sum();
    // Plus each rank's handful of ~100-byte metadata lines.
    let mut w = Out(String::with_capacity(
        64 + records * BYTES_PER_RECORD + ranks.len() * 512,
    ));
    w.s("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");

    let mut lanes: Vec<Lane> = Vec::new();
    // Span pairing: per (lane, kind) open stack, matched in recording order.
    let mut open_task: Vec<(u64, usize, usize, Lane)> = Vec::new();
    let mut open_off: Vec<(u64, usize, u64, Lane)> = Vec::new();
    let mut open_dma: Vec<(u64, u64, Lane)> = Vec::new();

    for (rank, buf) in ranks.iter().enumerate() {
        w.s("  {\"ph\": \"M\", \"pid\": ").n(rank as u64);
        w.s(", \"name\": \"process_name\", \"args\": {\"name\": \"rank ");
        w.n(rank as u64).s("\"}},\n");
        // Thread metadata for every lane that appears.
        lanes.clear();
        for r in buf {
            if let Err(pos) = lanes.binary_search(&r.lane) {
                lanes.insert(pos, r.lane);
            }
        }
        for lane in &lanes {
            w.s("  {\"ph\": \"M\", \"pid\": ").n(rank as u64);
            w.s(", \"tid\": ").n(lane.tid());
            w.s(", \"name\": \"thread_name\", \"args\": {\"name\": \"");
            let _ = write!(w.0, "{lane}");
            w.s("\"}},\n");
        }

        for r in buf {
            let tid = r.lane.tid();
            match &r.event {
                Event::TaskStart { patch, stage } => {
                    open_task.push((r.at_ps, *patch, *stage, r.lane));
                }
                Event::TaskEnd { patch, stage } => {
                    let (p, s) = (*patch as u64, *stage as u64);
                    if let Some(pos) = open_task
                        .iter()
                        .rposition(|&(_, p, s, l)| p == *patch && s == *stage && l == r.lane)
                    {
                        let (t0, ..) = open_task.remove(pos);
                        w.span(rank, tid).s("task p").n(p).s(" s").n(s);
                        w.window(t0, r.at_ps).arg("patch", p).arg("stage", s).end();
                    } else {
                        w.instant(rank, tid).s("task.unmatched_end p").n(p);
                        w.s(" s").n(s).at(r.at_ps).end();
                    }
                }
                Event::OffloadStart { patch, token } => {
                    open_off.push((r.at_ps, *patch, *token, r.lane));
                }
                Event::OffloadDone { patch, token } => {
                    let p = *patch as u64;
                    if let Some(pos) = open_off
                        .iter()
                        .rposition(|&(_, p, t, l)| p == *patch && t == *token && l == r.lane)
                    {
                        let (t0, ..) = open_off.remove(pos);
                        w.span(rank, tid).s("kernel p").n(p).window(t0, r.at_ps);
                        w.arg("patch", p).arg("token", *token).end();
                    } else {
                        w.instant(rank, tid).s("kernel.unmatched_end p").n(p);
                        w.s(" t").n(*token).at(r.at_ps).end();
                    }
                }
                Event::DmaIn { bytes } => open_dma.push((r.at_ps, *bytes, r.lane)),
                Event::DmaOut { bytes } => {
                    if let Some(pos) = open_dma.iter().rposition(|&(_, _, l)| l == r.lane) {
                        let (t0, b_in, _) = open_dma.remove(pos);
                        w.span(rank, tid).s("dma").window(t0, r.at_ps);
                        w.arg("bytes_in", b_in).arg("bytes_out", *bytes).end();
                    } else {
                        w.instant(rank, tid).s("dma.unmatched_end ").n(*bytes);
                        w.s("B").at(r.at_ps).end();
                    }
                }
                Event::MsgPosted {
                    msg,
                    peer,
                    tag,
                    bytes,
                    eager,
                } => {
                    w.instant(rank, tid).s("MsgPosted").at(r.at_ps);
                    w.arg("msg", *msg).arg("dst", *peer as u64).arg("tag", *tag);
                    w.arg("bytes", *bytes).s(", \"eager\": ");
                    w.s(if *eager { "true" } else { "false" }).end();
                    w.flow("s", *msg, rank, tid, r.at_ps);
                }
                Event::MsgOnWire {
                    msg,
                    src,
                    dst,
                    bytes,
                    deliver_ps,
                } => {
                    w.span(rank, Lane::WIRE_TID).s("wire ").n(*src as u64);
                    w.s("->").n(*dst as u64).window(r.at_ps, *deliver_ps);
                    w.arg("msg", *msg).arg("bytes", *bytes).end();
                }
                Event::MsgDelivered {
                    msg,
                    peer,
                    tag,
                    bytes,
                } => {
                    w.instant(rank, tid).s("MsgDelivered").at(r.at_ps);
                    w.arg("msg", *msg).arg("src", *peer as u64).arg("tag", *tag);
                    w.arg("bytes", *bytes).end();
                    w.flow("f", *msg, rank, tid, r.at_ps);
                }
                Event::RtsSent { msg, peer } => {
                    w.instant(rank, tid).s("RTS").at(r.at_ps);
                    w.arg("msg", *msg).arg("dst", *peer as u64).end();
                }
                Event::CtsSent { msg, peer } => {
                    w.instant(rank, tid).s("CTS").at(r.at_ps);
                    w.arg("msg", *msg).arg("src", *peer as u64).end();
                }
                Event::ProgressCall { actions } => {
                    // Only non-trivial progress shows up as an instant; no-op
                    // polls would bury the timeline.
                    if *actions > 0 {
                        w.instant(rank, tid).s("progress").at(r.at_ps);
                        w.arg("actions", *actions).end();
                    }
                }
                Event::AggStaged {
                    msg,
                    peer,
                    endpoint,
                    bytes,
                } => {
                    w.instant(rank, tid).s("agg.stage").at(r.at_ps);
                    w.arg("msg", *msg).arg("dst", *peer as u64);
                    w.arg("ep", u64::from(*endpoint)).arg("bytes", *bytes).end();
                }
                Event::AggFlushed {
                    batch,
                    peer,
                    endpoint,
                    msgs,
                    bytes,
                    reason,
                } => {
                    w.instant(rank, tid).s("agg.flush.").esc(reason).at(r.at_ps);
                    w.arg("batch", *batch).arg("dst", *peer as u64);
                    w.arg("ep", u64::from(*endpoint)).arg("msgs", *msgs);
                    w.arg("bytes", *bytes).end();
                }
                Event::ReduceContribute { step } => {
                    w.instant(rank, tid).s("reduce.contribute").at(r.at_ps);
                    w.arg("step", *step as u64).end();
                }
                Event::ReduceDone { step } => {
                    w.instant(rank, tid).s("reduce.done").at(r.at_ps);
                    w.arg("step", *step as u64).end();
                }
                Event::Barrier { step } => {
                    w.instant(rank, tid).s("barrier").at(r.at_ps);
                    w.arg("step", *step as u64).end();
                }
                Event::Idle { until_ps } => {
                    if *until_ps != u64::MAX && *until_ps > r.at_ps {
                        w.span(rank, tid).s("idle").window(r.at_ps, *until_ps).end();
                    } else {
                        w.instant(rank, tid).s("idle").at(r.at_ps).end();
                    }
                }
                Event::Mark { tag } => {
                    w.instant(rank, tid).s("mark.").esc(tag).at(r.at_ps).end();
                }
                Event::FaultInjected { kind, id } => {
                    w.instant(rank, tid).s("fault.inject.").esc(kind);
                    w.at(r.at_ps).arg("id", *id).end();
                }
                Event::FaultDetected { kind, id } => {
                    w.instant(rank, tid).s("fault.detect.").esc(kind);
                    w.at(r.at_ps).arg("id", *id).end();
                }
                Event::FaultRecovered { kind, id } => {
                    w.instant(rank, tid).s("fault.recover.").esc(kind);
                    w.at(r.at_ps).arg("id", *id).end();
                }
                Event::CheckpointWritten { step, bytes } => {
                    w.instant(rank, tid).s("ckpt.write").at(r.at_ps);
                    w.arg("step", *step as u64).arg("bytes", *bytes).end();
                }
                Event::CheckpointRestored { step } => {
                    w.instant(rank, tid).s("ckpt.restore").at(r.at_ps);
                    w.arg("step", *step as u64).end();
                }
            }
        }
        // Unmatched span starts: emit as instants so nothing is lost.
        for (t0, p, s, lane) in open_task.drain(..) {
            w.instant(rank, lane.tid())
                .s("task.unmatched p")
                .n(p as u64);
            w.s(" s").n(s as u64).at(t0).end();
        }
        for (t0, p, t, lane) in open_off.drain(..) {
            w.instant(rank, lane.tid()).s("kernel.unmatched p");
            w.n(p as u64).s(" t").n(t).at(t0).end();
        }
        for (t0, b, lane) in open_dma.drain(..) {
            w.instant(rank, lane.tid()).s("dma.unmatched ").n(b);
            w.s("B").at(t0).end();
        }
    }

    // Every event line ends ",\n"; the last one loses its comma.
    let mut out = w.0;
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The `format!`-per-event renderer `export` replaced (plus the
    /// unmatched-end instants), kept as its byte-for-byte oracle.
    mod reference {
        use crate::event::{Event, EventRecord, Lane};
        use crate::json::esc;

        /// ps → trace-event µs, keeping fractional precision.
        fn us(ps: u64) -> f64 {
            ps as f64 / 1e6
        }

        fn meta(pid: usize, tid: Option<u64>, which: &str, name: &str) -> String {
            let tid_field = tid.map_or(String::new(), |t| format!("\"tid\": {t}, "));
            format!(
                "{{\"ph\": \"M\", \"pid\": {pid}, {tid_field}\"name\": \"{which}\", \
             \"args\": {{\"name\": \"{}\"}}}}",
                esc(name)
            )
        }

        fn span(
            pid: usize,
            tid: u64,
            name: &str,
            start_ps: u64,
            end_ps: u64,
            args: &str,
        ) -> String {
            format!(
                "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"{}\", \
             \"ts\": {:.6}, \"dur\": {:.6}, \"args\": {{{args}}}}}",
                esc(name),
                us(start_ps),
                us(end_ps.saturating_sub(start_ps).max(1)) // Perfetto hides 0-width
            )
        }

        fn instant(pid: usize, tid: u64, name: &str, at_ps: u64, args: &str) -> String {
            format!(
                "{{\"ph\": \"i\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"{}\", \
             \"ts\": {:.6}, \"s\": \"t\", \"args\": {{{args}}}}}",
                esc(name),
                us(at_ps)
            )
        }

        fn flow(ph: char, id: u64, pid: usize, tid: u64, at_ps: u64) -> String {
            let bind = if ph == 'f' { ", \"bp\": \"e\"" } else { "" };
            format!(
                "{{\"ph\": \"{ph}\", \"id\": {id}, \"pid\": {pid}, \"tid\": {tid}, \
             \"name\": \"msg\", \"cat\": \"msg\", \"ts\": {:.6}{bind}}}",
                us(at_ps)
            )
        }

        /// The `format!`-per-event renderer `export` replaced, kept as its oracle.
        pub fn export(ranks: &[Vec<EventRecord>]) -> String {
            let mut ev: Vec<String> = Vec::new();

            for (rank, buf) in ranks.iter().enumerate() {
                ev.push(meta(rank, None, "process_name", &format!("rank {rank}")));
                // Thread metadata for every lane that appears.
                let mut lanes: Vec<Lane> = buf.iter().map(|r| r.lane).collect();
                lanes.sort();
                lanes.dedup();
                for lane in &lanes {
                    ev.push(meta(rank, Some(lane.tid()), "thread_name", &lane.name()));
                }

                // Span pairing: per (lane, kind) open stack, matched in recording
                // order. Unmatched starts fall back to instants so a truncated
                // buffer still exports.
                let mut open_task: Vec<(u64, usize, usize, Lane)> = Vec::new();
                let mut open_off: Vec<(u64, usize, u64, Lane)> = Vec::new();
                let mut open_dma: Vec<(u64, u64, Lane)> = Vec::new();

                for r in buf {
                    let tid = r.lane.tid();
                    match &r.event {
                    Event::TaskStart { patch, stage } => {
                        open_task.push((r.at_ps, *patch, *stage, r.lane));
                    }
                    Event::TaskEnd { patch, stage } => {
                        if let Some(pos) = open_task
                            .iter()
                            .rposition(|&(_, p, s, l)| p == *patch && s == *stage && l == r.lane)
                        {
                            let (t0, p, s, _) = open_task.remove(pos);
                            ev.push(span(
                                rank,
                                tid,
                                &format!("task p{p} s{s}"),
                                t0,
                                r.at_ps,
                                &format!("\"patch\": {p}, \"stage\": {s}"),
                            ));
                        } else {
                            let name = format!("task.unmatched_end p{patch} s{stage}");
                            ev.push(instant(rank, tid, &name, r.at_ps, ""));
                        }
                    }
                    Event::OffloadStart { patch, token } => {
                        open_off.push((r.at_ps, *patch, *token, r.lane));
                    }
                    Event::OffloadDone { patch, token } => {
                        if let Some(pos) = open_off
                            .iter()
                            .rposition(|&(_, p, t, l)| p == *patch && t == *token && l == r.lane)
                        {
                            let (t0, p, t, _) = open_off.remove(pos);
                            ev.push(span(
                                rank,
                                tid,
                                &format!("kernel p{p}"),
                                t0,
                                r.at_ps,
                                &format!("\"patch\": {p}, \"token\": {t}"),
                            ));
                        } else {
                            let name = format!("kernel.unmatched_end p{patch} t{token}");
                            ev.push(instant(rank, tid, &name, r.at_ps, ""));
                        }
                    }
                    Event::DmaIn { bytes } => open_dma.push((r.at_ps, *bytes, r.lane)),
                    Event::DmaOut { bytes } => {
                        if let Some(pos) = open_dma.iter().rposition(|&(_, _, l)| l == r.lane) {
                            let (t0, b_in, _) = open_dma.remove(pos);
                            ev.push(span(
                                rank,
                                tid,
                                "dma",
                                t0,
                                r.at_ps,
                                &format!("\"bytes_in\": {b_in}, \"bytes_out\": {bytes}"),
                            ));
                        } else {
                            let name = format!("dma.unmatched_end {bytes}B");
                            ev.push(instant(rank, tid, &name, r.at_ps, ""));
                        }
                    }
                    Event::MsgPosted {
                        msg,
                        peer,
                        tag,
                        bytes,
                        eager,
                    } => {
                        ev.push(instant(
                            rank,
                            tid,
                            "MsgPosted",
                            r.at_ps,
                            &format!(
                                "\"msg\": {msg}, \"dst\": {peer}, \"tag\": {tag}, \
                                 \"bytes\": {bytes}, \"eager\": {eager}"
                            ),
                        ));
                        ev.push(flow('s', *msg, rank, tid, r.at_ps));
                    }
                    Event::MsgOnWire {
                        msg,
                        src,
                        dst,
                        bytes,
                        deliver_ps,
                    } => {
                        ev.push(span(
                            rank,
                            Lane::WIRE_TID,
                            &format!("wire {src}->{dst}"),
                            r.at_ps,
                            *deliver_ps,
                            &format!("\"msg\": {msg}, \"bytes\": {bytes}"),
                        ));
                    }
                    Event::MsgDelivered {
                        msg,
                        peer,
                        tag,
                        bytes,
                    } => {
                        ev.push(instant(
                            rank,
                            tid,
                            "MsgDelivered",
                            r.at_ps,
                            &format!(
                                "\"msg\": {msg}, \"src\": {peer}, \"tag\": {tag}, \"bytes\": {bytes}"
                            ),
                        ));
                        ev.push(flow('f', *msg, rank, tid, r.at_ps));
                    }
                    Event::RtsSent { msg, peer } => ev.push(instant(
                        rank,
                        tid,
                        "RTS",
                        r.at_ps,
                        &format!("\"msg\": {msg}, \"dst\": {peer}"),
                    )),
                    Event::CtsSent { msg, peer } => ev.push(instant(
                        rank,
                        tid,
                        "CTS",
                        r.at_ps,
                        &format!("\"msg\": {msg}, \"src\": {peer}"),
                    )),
                    Event::ProgressCall { actions } => {
                        // Only non-trivial progress shows up as an instant; no-op
                        // polls would bury the timeline.
                        if *actions > 0 {
                            ev.push(instant(
                                rank,
                                tid,
                                "progress",
                                r.at_ps,
                                &format!("\"actions\": {actions}"),
                            ));
                        }
                    }
                    Event::AggStaged {
                        msg,
                        peer,
                        endpoint,
                        bytes,
                    } => ev.push(instant(
                        rank,
                        tid,
                        "agg.stage",
                        r.at_ps,
                        &format!(
                            "\"msg\": {msg}, \"dst\": {peer}, \"ep\": {endpoint}, \"bytes\": {bytes}"
                        ),
                    )),
                    Event::AggFlushed {
                        batch,
                        peer,
                        endpoint,
                        msgs,
                        bytes,
                        reason,
                    } => ev.push(instant(
                        rank,
                        tid,
                        &format!("agg.flush.{reason}"),
                        r.at_ps,
                        &format!(
                            "\"batch\": {batch}, \"dst\": {peer}, \"ep\": {endpoint}, \
                             \"msgs\": {msgs}, \"bytes\": {bytes}"
                        ),
                    )),
                    Event::ReduceContribute { step } => ev.push(instant(
                        rank,
                        tid,
                        "reduce.contribute",
                        r.at_ps,
                        &format!("\"step\": {step}"),
                    )),
                    Event::ReduceDone { step } => ev.push(instant(
                        rank,
                        tid,
                        "reduce.done",
                        r.at_ps,
                        &format!("\"step\": {step}"),
                    )),
                    Event::Barrier { step } => ev.push(instant(
                        rank,
                        tid,
                        "barrier",
                        r.at_ps,
                        &format!("\"step\": {step}"),
                    )),
                    Event::Idle { until_ps } => {
                        if *until_ps != u64::MAX && *until_ps > r.at_ps {
                            ev.push(span(rank, tid, "idle", r.at_ps, *until_ps, ""));
                        } else {
                            ev.push(instant(rank, tid, "idle", r.at_ps, ""));
                        }
                    }
                    Event::Mark { tag } => {
                        ev.push(instant(rank, tid, &format!("mark.{tag}"), r.at_ps, ""))
                    }
                    Event::FaultInjected { kind, id } => ev.push(instant(
                        rank,
                        tid,
                        &format!("fault.inject.{kind}"),
                        r.at_ps,
                        &format!("\"id\": {id}"),
                    )),
                    Event::FaultDetected { kind, id } => ev.push(instant(
                        rank,
                        tid,
                        &format!("fault.detect.{kind}"),
                        r.at_ps,
                        &format!("\"id\": {id}"),
                    )),
                    Event::FaultRecovered { kind, id } => ev.push(instant(
                        rank,
                        tid,
                        &format!("fault.recover.{kind}"),
                        r.at_ps,
                        &format!("\"id\": {id}"),
                    )),
                    Event::CheckpointWritten { step, bytes } => ev.push(instant(
                        rank,
                        tid,
                        "ckpt.write",
                        r.at_ps,
                        &format!("\"step\": {step}, \"bytes\": {bytes}"),
                    )),
                    Event::CheckpointRestored { step } => ev.push(instant(
                        rank,
                        tid,
                        "ckpt.restore",
                        r.at_ps,
                        &format!("\"step\": {step}"),
                    )),
                }
                }
                // Unmatched span starts: emit as instants so nothing is lost.
                for (t0, p, s, lane) in open_task {
                    ev.push(instant(
                        rank,
                        lane.tid(),
                        &format!("task.unmatched p{p} s{s}"),
                        t0,
                        "",
                    ));
                }
                for (t0, p, t, lane) in open_off {
                    ev.push(instant(
                        rank,
                        lane.tid(),
                        &format!("kernel.unmatched p{p} t{t}"),
                        t0,
                        "",
                    ));
                }
                for (t0, b, lane) in open_dma {
                    ev.push(instant(
                        rank,
                        lane.tid(),
                        &format!("dma.unmatched {b}B"),
                        t0,
                        "",
                    ));
                }
            }

            let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
            for (i, e) in ev.iter().enumerate() {
                out.push_str("  ");
                out.push_str(e);
                out.push_str(if i + 1 == ev.len() { "\n" } else { ",\n" });
            }
            out.push_str("]}\n");
            out
        }
    }

    fn rec(at_ps: u64, lane: Lane, event: Event) -> EventRecord {
        EventRecord {
            at_ps,
            wall_ns: None,
            lane,
            event,
        }
    }

    #[test]
    fn exports_spans_instants_and_flows() {
        let ranks = vec![
            vec![
                rec(0, Lane::Mpe, Event::TaskStart { patch: 3, stage: 0 }),
                rec(
                    100_000,
                    Lane::Mpe,
                    Event::MsgPosted {
                        msg: 7,
                        peer: 1,
                        tag: 42,
                        bytes: 4096,
                        eager: false,
                    },
                ),
                rec(200_000, Lane::Mpe, Event::TaskEnd { patch: 3, stage: 0 }),
                rec(
                    50_000,
                    Lane::Cpe(0),
                    Event::OffloadStart { patch: 3, token: 9 },
                ),
                rec(
                    180_000,
                    Lane::Cpe(0),
                    Event::OffloadDone { patch: 3, token: 9 },
                ),
            ],
            vec![rec(
                300_000,
                Lane::Mpe,
                Event::MsgDelivered {
                    msg: 7,
                    peer: 0,
                    tag: 42,
                    bytes: 4096,
                },
            )],
        ];
        let j = export(&ranks);
        assert!(j.starts_with("{\"displayTimeUnit\""));
        assert!(j.contains("\"process_name\""));
        assert!(j.contains("\"thread_name\""));
        assert!(j.contains("\"ph\": \"X\""));
        assert!(j.contains("task p3 s0"));
        assert!(j.contains("kernel p3"));
        assert!(j.contains("\"ph\": \"s\", \"id\": 7"));
        assert!(j.contains("\"ph\": \"f\", \"id\": 7"));
        assert!(j.trim_end().ends_with("]}"));
        assert!(crate::json::is_valid(&j));
    }

    #[test]
    fn unmatched_starts_degrade_to_instants() {
        let ranks = vec![vec![rec(
            10,
            Lane::Cpe(2),
            Event::OffloadStart { patch: 1, token: 5 },
        )]];
        let j = export(&ranks);
        assert!(j.contains("kernel.unmatched p1 t5"));
    }

    #[test]
    fn unmatched_ends_degrade_to_instants() {
        // A buffer truncated at the front: three span ends whose starts are
        // gone. Each is kept as an instant at its own time and track.
        let ranks = vec![vec![
            rec(1_500_000, Lane::Mpe, Event::TaskEnd { patch: 4, stage: 2 }),
            rec(
                2_000_000,
                Lane::Cpe(1),
                Event::OffloadDone { patch: 4, token: 8 },
            ),
            rec(2_500_000, Lane::Cpe(1), Event::DmaOut { bytes: 640 }),
        ]];
        let j = export(&ranks);
        assert!(crate::json::is_valid(&j));
        for line in [
            "\"tid\": 0, \"name\": \"task.unmatched_end p4 s2\", \"ts\": 1.500000,",
            "\"tid\": 2, \"name\": \"kernel.unmatched_end p4 t8\", \"ts\": 2.000000,",
            "\"tid\": 2, \"name\": \"dma.unmatched_end 640B\", \"ts\": 2.500000,",
        ] {
            assert!(j.contains(line), "missing {line} in\n{j}");
        }
        // An end on another lane than its start pairs with nothing: both
        // sides survive.
        let crossed = vec![vec![
            rec(0, Lane::Cpe(0), Event::DmaIn { bytes: 64 }),
            rec(9, Lane::Cpe(1), Event::DmaOut { bytes: 64 }),
        ]];
        let j = export(&crossed);
        assert!(j.contains("dma.unmatched_end 64B") && j.contains("dma.unmatched 64B"));
    }

    fn us_string(ps: u64) -> String {
        let mut w = Out(String::new());
        w.us(ps);
        w.0
    }

    #[test]
    fn us_is_the_float_rendering() {
        let float = |ps: u64| format!("{:.6}", ps as f64 / 1e6);
        let mut cases = vec![
            0,
            1,
            999_999,
            1_000_000,
            1_000_000_000_000 - 1,
            1_000_000_000_000,
            1_000_000_000_000 + 1,
            EXACT_US_BELOW - 1,
            // The float fallback, trivially itself.
            EXACT_US_BELOW,
            u64::MAX,
        ];
        // 10 000 random values spread over every magnitude below 2^52.
        let mut rng = TestRng::from_seed(0x5eed);
        cases.extend((0..10_000).map(|_| rng.next_u64() >> (12 + rng.below(52))));
        for ps in cases {
            assert_eq!(us_string(ps), float(ps), "ps = {ps}");
        }
        assert_eq!(us_string(1_234_567), "1.234567");
        assert_eq!(us_string(42), "0.000042");
    }

    /// Tags a `&'static str` field can carry, escapes included.
    const TAGS: [&str; 6] = [
        "x",
        "bytes",
        "quo\"te",
        "back\\slash",
        "ctl\u{1}\n\t\r",
        "µs",
    ];
    const LANES: [Lane; 6] = [
        Lane::Mpe,
        Lane::Cpe(0),
        Lane::Cpe(1),
        Lane::Cpe(97),
        Lane::Progress,
        Lane::Wire,
    ];

    /// One random record: any of the 24 variants on any lane kind, ids
    /// from small ranges so starts and ends pair up, cross lanes, or dangle.
    fn random_record(rng: &mut TestRng) -> EventRecord {
        let small = |rng: &mut TestRng| rng.below(3);
        let big = |rng: &mut TestRng| rng.next_u64() >> rng.below(64);
        let tag = |rng: &mut TestRng| TAGS[rng.below(TAGS.len() as u64) as usize];
        let (patch, stage) = (small(rng) as usize, small(rng) as usize);
        let (step, peer) = (small(rng) as usize, small(rng) as usize);
        let event = match rng.below(24) {
            0 => Event::TaskStart { patch, stage },
            1 => Event::TaskEnd { patch, stage },
            2 => Event::OffloadStart {
                patch,
                token: small(rng),
            },
            3 => Event::OffloadDone {
                patch,
                token: small(rng),
            },
            4 => Event::DmaIn { bytes: big(rng) },
            5 => Event::DmaOut { bytes: big(rng) },
            6 => Event::MsgPosted {
                msg: big(rng),
                peer,
                tag: big(rng),
                bytes: big(rng),
                eager: rng.below(2) == 0,
            },
            7 => Event::MsgOnWire {
                msg: big(rng),
                src: patch,
                dst: peer,
                bytes: big(rng),
                deliver_ps: big(rng),
            },
            8 => Event::MsgDelivered {
                msg: big(rng),
                peer,
                tag: big(rng),
                bytes: big(rng),
            },
            9 => Event::RtsSent {
                msg: big(rng),
                peer,
            },
            10 => Event::CtsSent {
                msg: big(rng),
                peer,
            },
            11 => Event::ProgressCall {
                actions: small(rng),
            },
            12 => Event::AggStaged {
                msg: big(rng),
                peer,
                endpoint: small(rng) as u32,
                bytes: big(rng),
            },
            13 => Event::AggFlushed {
                batch: big(rng),
                peer,
                endpoint: small(rng) as u32,
                msgs: small(rng),
                bytes: big(rng),
                reason: tag(rng),
            },
            14 => Event::ReduceContribute { step },
            15 => Event::ReduceDone { step },
            16 => Event::Barrier { step },
            17 => Event::Idle {
                until_ps: [u64::MAX, 0, big(rng)][small(rng) as usize],
            },
            18 => Event::Mark { tag: tag(rng) },
            19 => Event::FaultInjected {
                kind: tag(rng),
                id: big(rng),
            },
            20 => Event::FaultDetected {
                kind: tag(rng),
                id: big(rng),
            },
            21 => Event::FaultRecovered {
                kind: tag(rng),
                id: big(rng),
            },
            22 => Event::CheckpointWritten {
                step,
                bytes: big(rng),
            },
            _ => Event::CheckpointRestored { step },
        };
        let lane = LANES[rng.below(LANES.len() as u64) as usize];
        // Times on both sides of the exact-integer bound.
        rec(big(rng), lane, event)
    }

    #[test]
    fn empty_inputs_export_like_the_reference() {
        for snap in [vec![], vec![vec![]], vec![vec![], vec![]]] {
            let j = export(&snap);
            assert_eq!(j, reference::export(&snap));
            assert!(crate::json::is_valid(&j), "{j}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `export` is byte-for-byte the renderer it replaced, on buffers
        /// no real run produces: every variant on every lane kind, escaped
        /// tags, unmatched starts and ends, empty ranks.
        #[test]
        fn export_equals_the_reference_renderer(seed in any::<u64>()) {
            let mut rng = TestRng::from_seed(seed);
            let snap: Vec<Vec<EventRecord>> = (0..rng.below(4))
                .map(|_| {
                    let len = [0, 1, 8, 60][rng.below(4) as usize];
                    (0..len).map(|_| random_record(&mut rng)).collect()
                })
                .collect();
            let j = export(&snap);
            prop_assert_eq!(&j, &reference::export(&snap));
            prop_assert!(crate::json::is_valid(&j));
        }
    }
}
