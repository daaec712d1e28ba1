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

fn span(pid: usize, tid: u64, name: &str, start_ps: u64, end_ps: u64, args: &str) -> String {
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

/// Export per-rank event buffers (as produced by
/// [`crate::Recorder::snapshot`]) to a Chrome trace-event JSON document.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
