//! Happens-before reconstruction and race detection over recorded event
//! traces (FastTrack-style epochs over vector clocks, adapted to the
//! simulator's structured events).
//!
//! The trace model: each rank's buffer is appended by that rank's single
//! logical thread, so **buffer order is a valid program-order
//! linearization per rank**; lanes split it into logical threads. The
//! happens-before relation is rebuilt from exactly four edge families:
//!
//! * **program order** per `(rank, lane)` thread;
//! * **fork/join** — `OffloadStart` inherits the MPE's clock (the MPE
//!   spawned the kernel at that buffer position) and `OffloadDone` joins
//!   the CPE clock back into the MPE (it is recorded at the harvest
//!   point);
//! * **message edges** — `MsgPosted(msg)` on the source happens before
//!   `MsgDelivered(msg)` on the destination (matched by the
//!   communicator's globally unique message id);
//! * **reduction edges** — every `ReduceContribute(step)` happens before
//!   every `ReduceDone(step)` (the allreduce hub folds all contributions
//!   before any rank observes the result).
//!
//! Everything else (`Barrier`, `Idle`, wire bookkeeping, rendezvous
//! control packets) is deliberately *not* a synchronization edge: fewer
//! assumed edges make the detector stricter. Data accesses are not
//! inferred here — the runtime-specific mapping from events to warehouse
//! accesses lives in `uintah-core` — callers hand [`AccessSpan`]s to
//! [`TraceHb::check`], which verifies every conflicting pair on a shared
//! resource is ordered by the reconstructed happens-before.
//!
//! **Representation.** The order is the vector-clock order, but no event
//! stores a vector. A thread's clock only changes in two ways: its own
//! component ticks at every event, and the other components move when
//! another clock is joined in (`OffloadDone` into the MPE, `MsgDelivered`,
//! `ReduceDone`). So an event keeps a [`Stamp`]: its thread, its own
//! component (the *epoch*), and the index of an immutable clock *version*
//! shared by every event of the thread until the next join. CPE and wire
//! threads are never joined into; their clock is the rank's MPE clock at
//! the fork (or at the wire record) plus their own epoch, so they borrow
//! the MPE's version instead of owning one. Because a component only ever
//! travels through joins, `a` happens before `b` iff `b`'s clock has
//! reached `a`'s epoch on `a`'s thread — one lookup, not a vector compare.

use std::collections::BTreeMap;
use std::fmt::Display;

use crate::event::{Event, EventRecord, Lane};

/// Read or write, for conflict classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The span only reads the resource.
    Read,
    /// The span writes (or reads and writes) the resource.
    Write,
}

/// One data access attributed to a span of trace events: the resource is
/// accessed somewhere between the start event and the end event
/// (inclusive) of one `(rank, lane)` thread.
#[derive(Debug, Clone)]
pub struct AccessSpan<W = String> {
    /// Rank whose buffer holds the span.
    pub rank: usize,
    /// Buffer index of the first event of the span.
    pub start: usize,
    /// Buffer index of the last event of the span (>= `start`).
    pub end: usize,
    /// Opaque resource key (the caller's encoding of variable identity);
    /// only accesses with equal keys can conflict.
    pub resource: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Description for diagnostics, rendered only into a [`RaceFinding`].
    pub what: W,
}

/// One unordered conflicting pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// Resource key both spans touch.
    pub resource: u64,
    /// Description of the first access.
    pub a: String,
    /// Description of the second access.
    pub b: String,
}

/// Result of checking a set of access spans against the trace's
/// happens-before relation.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Access spans examined.
    pub accesses: usize,
    /// Conflicting same-resource pairs compared.
    pub pairs_checked: u64,
    /// Unordered conflicting pairs — empty on a clean trace.
    pub races: Vec<RaceFinding>,
}

/// One event's clock in constant space: row `version` of [`Versions`] with
/// component `thread` replaced by `epoch` and component `host` by
/// `host_epoch`. A thread that owns its versions (MPE, progress) has
/// `host == thread`; a CPE or wire thread borrows its rank's MPE clock, so
/// `host` is that MPE thread and `host_epoch` the MPE's epoch when borrowed.
#[derive(Clone, Copy)]
struct Stamp {
    thread: usize,
    epoch: u64,
    host: usize,
    host_epoch: u64,
    version: usize,
}

impl Stamp {
    /// Raise `row` to at least this clock's two live components.
    fn raise(&self, row: &mut [u64]) {
        if self.host != self.thread {
            row[self.host] = row[self.host].max(self.host_epoch);
        }
        row[self.thread] = row[self.thread].max(self.epoch);
    }
}

/// Pointwise `row = max(row, other)`.
fn raise(row: &mut [u64], other: &[u64]) {
    for (a, b) in row.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

/// The immutable clock versions, `width` components each, in one arena.
/// Version 0 is the zero clock every thread starts from.
struct Versions {
    width: usize,
    comps: Vec<u64>,
}

impl Versions {
    fn row(&self, version: usize) -> &[u64] {
        &self.comps[version * self.width..][..self.width]
    }

    /// Component `t` of `s`'s clock.
    fn get(&self, s: &Stamp, t: usize) -> u64 {
        if t == s.thread {
            s.epoch
        } else if t == s.host {
            s.host_epoch
        } else {
            self.row(s.version)[t]
        }
    }

    /// Give `into` a fresh version of its own holding its current clock;
    /// returns the version it had. The new row is the arena's last.
    fn renew(&mut self, into: &mut Stamp) -> usize {
        let (old, start) = (into.version, self.comps.len());
        self.comps
            .extend_from_within(old * self.width..(old + 1) * self.width);
        debug_assert_eq!(into.host, into.thread, "only clock owners are joined into");
        into.raise(&mut self.comps[start..]);
        into.version = start / self.width;
        old
    }

    /// `into = into ⊔ src`, as a new version owned by `into`.
    fn join(&mut self, into: &mut Stamp, src: Stamp) {
        let old = self.renew(into);
        let (older, row) = self.comps.split_at_mut(into.version * self.width);
        if src.version != old {
            raise(row, &older[src.version * self.width..][..self.width]);
        }
        src.raise(row);
    }

    /// `into = into ⊔ src` for a clock held as a plain row.
    fn join_row(&mut self, into: &mut Stamp, src: &[u64]) {
        self.renew(into);
        raise(&mut self.comps[into.version * self.width..], src);
    }
}

/// The reconstructed happens-before relation of one trace snapshot.
pub struct TraceHb {
    /// Per-rank, per-event stamps, parallel to the snapshot's buffers.
    stamps: Vec<Vec<Stamp>>,
    versions: Versions,
    n_threads: usize,
    /// `MsgPosted -> MsgDelivered` edges honored, as `(msg, src, dst)`.
    pub msg_edges: Vec<(u64, usize, usize)>,
    /// `ReduceContribute -> ReduceDone` joins honored.
    pub reduce_edges: usize,
    /// Structural defects: deliveries with no recorded post, reductions
    /// completed with missing contributions. Non-empty means the trace
    /// itself (not just a schedule) is suspect.
    pub errors: Vec<String>,
}

impl TraceHb {
    /// Number of logical `(rank, lane)` threads discovered.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Total events the relation covers.
    pub fn n_events(&self) -> usize {
        self.stamps.iter().map(Vec::len).sum()
    }

    /// Whether event `(r1, i1)` happens before `(r2, i2)`: the second
    /// event's clock has reached the first one's epoch on its thread.
    pub fn ordered(&self, r1: usize, i1: usize, r2: usize, i2: usize) -> bool {
        let (a, b) = (&self.stamps[r1][i1], &self.stamps[r2][i2]);
        self.versions.get(b, a.thread) >= a.epoch
    }

    /// Check every conflicting pair of spans (same resource, at least one
    /// write, different threads) is ordered: the whole of one span must
    /// happen before the start of the other.
    pub fn check<W: Display>(&self, spans: &[AccessSpan<W>], lanes: &[Vec<Lane>]) -> RaceReport {
        check_spans(spans, lanes, |r1, i1, r2, i2| self.ordered(r1, i1, r2, i2))
    }
}

/// [`TraceHb::check`] over any happens-before oracle.
fn check_spans<W: Display>(
    spans: &[AccessSpan<W>],
    lanes: &[Vec<Lane>],
    ordered: impl Fn(usize, usize, usize, usize) -> bool,
) -> RaceReport {
    // Group by resource, keeping the caller's order within a group.
    let mut by_resource: Vec<&AccessSpan<W>> = spans.iter().collect();
    by_resource.sort_by_key(|s| s.resource);
    let mut report = RaceReport {
        accesses: spans.len(),
        ..RaceReport::default()
    };
    let thread_of = |s: &AccessSpan<W>| (s.rank, lanes[s.rank][s.start]);
    for group in by_resource.chunk_by(|a, b| a.resource == b.resource) {
        for (i, a) in group.iter().enumerate() {
            for b in &group[i + 1..] {
                if a.kind == AccessKind::Read && b.kind == AccessKind::Read {
                    continue;
                }
                if thread_of(a) == thread_of(b) {
                    continue; // program order
                }
                report.pairs_checked += 1;
                let a_first = ordered(a.rank, a.end, b.rank, b.start);
                let b_first = ordered(b.rank, b.end, a.rank, a.start);
                if !a_first && !b_first {
                    report.races.push(RaceFinding {
                        resource: a.resource,
                        a: a.what.to_string(),
                        b: b.what.to_string(),
                    });
                }
            }
        }
    }
    report
}

/// Number the `(rank, lane)` threads in first-appearance order: one small
/// lane table per rank, and the total.
fn number_threads(snapshot: &[Vec<EventRecord>]) -> (Vec<Vec<(Lane, usize)>>, usize) {
    let mut n = 0;
    let tables = snapshot
        .iter()
        .map(|buf| {
            let mut table: Vec<(Lane, usize)> = Vec::new();
            for rec in buf {
                if !table.iter().any(|&(l, _)| l == rec.lane) {
                    table.push((rec.lane, n));
                    n += 1;
                }
            }
            table
        })
        .collect();
    (tables, n)
}

fn thread_in(table: &[(Lane, usize)], lane: Lane) -> Option<usize> {
    table.iter().find(|&&(l, _)| l == lane).map(|&(_, t)| t)
}

/// Reconstruct the happens-before relation of a recorder snapshot.
///
/// Buffers are consumed in order, round-robin across ranks; an event
/// needing a cross-rank input that has not been produced yet (a delivery
/// whose post is further down another rank's buffer, a reduction
/// completion whose contributions are still pending) parks its rank until
/// the input appears. A causal trace always drains; a defective one
/// (delivery without post, reduction completed with missing
/// contributions) is drained anyway with the defect recorded in
/// [`TraceHb::errors`].
pub fn trace_hb(snapshot: &[Vec<EventRecord>]) -> TraceHb {
    let n_ranks = snapshot.len();
    let (tables, n_threads) = number_threads(snapshot);
    // A rank's MPE clock is forked from and joined into even when no
    // MPE-lane event was recorded; such a rank gets a component of its own
    // that never ticks.
    let mut width = n_threads;
    let mpe_of: Vec<usize> = tables
        .iter()
        .map(|table| {
            thread_in(table, Lane::Mpe).unwrap_or_else(|| {
                width += 1;
                width - 1
            })
        })
        .collect();
    let mut versions = Versions {
        width,
        comps: vec![0; width],
    };
    // Every thread's current clock; an event's stamp is a copy of it.
    let mut cur: Vec<Stamp> = (0..width)
        .map(|thread| Stamp {
            thread,
            epoch: 0,
            host: thread,
            host_epoch: 0,
            version: 0,
        })
        .collect();
    let mut pos = vec![0usize; n_ranks];
    let mut stamps: Vec<Vec<Stamp>> = snapshot
        .iter()
        .map(|b| Vec::with_capacity(b.len()))
        .collect();
    let mut posted: BTreeMap<u64, (usize, Stamp)> = BTreeMap::new();
    // Per step: contributions seen and their running join.
    let mut contribs: BTreeMap<usize, (usize, Vec<u64>)> = BTreeMap::new();
    let mut msg_edges = Vec::new();
    let mut reduce_edges = 0usize;
    let mut errors = Vec::new();
    // `force` releases parked ranks after a no-progress round.
    let mut force = false;
    loop {
        let mut progressed = false;
        for r in 0..n_ranks {
            let mpe = mpe_of[r];
            while pos[r] < snapshot[r].len() {
                let rec = &snapshot[r][pos[r]];
                // Park on unavailable cross-rank inputs (unless forced).
                match &rec.event {
                    Event::MsgDelivered { msg, .. } if !posted.contains_key(msg) && !force => break,
                    Event::ReduceDone { step } => {
                        let have = contribs.get(step).map_or(0, |(n, _)| *n);
                        if have < n_ranks && !force {
                            break;
                        }
                    }
                    _ => {}
                }
                let t = thread_in(&tables[r], rec.lane).expect("numbered in the pre-pass");
                // Program order: every event ticks its own thread.
                cur[t].epoch += 1;
                match (&rec.event, rec.lane) {
                    // Fork: the kernel starts with everything the MPE has
                    // seen at the spawn point. Wire bookkeeping is recorded
                    // by the MPE thread and synchronizes nothing itself
                    // (delivery edges come from MsgPosted/MsgDelivered).
                    // Neither thread is ever joined into, so what it holds
                    // besides its epoch is an older clock of this MPE:
                    // borrowing the current one is the join.
                    (Event::OffloadStart { .. }, Lane::Cpe(_)) | (_, Lane::Wire) => {
                        cur[t] = Stamp {
                            host: mpe,
                            host_epoch: cur[mpe].epoch,
                            version: cur[mpe].version,
                            ..cur[t]
                        };
                    }
                    // Join: recorded at the harvest point, so the MPE has
                    // observed completion from here on.
                    (Event::OffloadDone { .. }, Lane::Cpe(_)) => {
                        let done = cur[t];
                        versions.join(&mut cur[mpe], done);
                    }
                    // DMA windows and other CPE-lane bookkeeping: program
                    // order within the kernel span.
                    (_, Lane::Cpe(_)) => {}
                    (Event::MsgPosted { msg, .. }, Lane::Mpe) => {
                        posted.insert(*msg, (r, cur[t]));
                    }
                    // The message edge lands on the delivering thread. On
                    // the dedicated progress lane the completion then joins
                    // into the MPE (the model makes it visible to the host
                    // from this point on — the next recv poll observes it).
                    (Event::MsgDelivered { msg, .. }, Lane::Mpe | Lane::Progress) => {
                        if let Some(&(src, post)) = posted.get(msg) {
                            versions.join(&mut cur[t], post);
                            msg_edges.push((*msg, src, r));
                        } else {
                            errors.push(format!(
                                "rank {r}: MsgDelivered(msg {msg}) with no recorded MsgPosted"
                            ));
                        }
                        if t != mpe {
                            let delivered = cur[t];
                            versions.join(&mut cur[mpe], delivered);
                        }
                    }
                    // Other progress-lane protocol actions: program order
                    // on the progress thread only.
                    (_, Lane::Progress) => {}
                    (Event::ReduceContribute { step }, Lane::Mpe) => {
                        let (n, joined) =
                            contribs.entry(*step).or_insert_with(|| (0, vec![0; width]));
                        *n += 1;
                        raise(joined, versions.row(cur[t].version));
                        cur[t].raise(joined);
                    }
                    (Event::ReduceDone { step }, Lane::Mpe) => match contribs.get(step) {
                        Some((n, joined)) => {
                            if *n < n_ranks {
                                errors.push(format!(
                                    "rank {r}: ReduceDone(step {step}) with {n}/{n_ranks} \
                                     contributions recorded"
                                ));
                            }
                            versions.join_row(&mut cur[t], joined);
                            reduce_edges += 1;
                        }
                        None => errors.push(format!(
                            "rank {r}: ReduceDone(step {step}) with no contributions"
                        )),
                    },
                    // Every other MPE-lane event: program order only.
                    (_, Lane::Mpe) => {}
                }
                stamps[r].push(cur[t]);
                pos[r] += 1;
                progressed = true;
                force = false;
            }
        }
        if pos.iter().zip(snapshot).all(|(&p, buf)| p >= buf.len()) {
            break;
        }
        if !progressed {
            if force {
                // Even forced processing made no progress: impossible, but
                // never loop forever.
                errors.push("trace processing wedged".to_string());
                break;
            }
            force = true;
        }
    }
    TraceHb {
        stamps,
        versions,
        n_threads,
        msg_edges,
        reduce_edges,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The dense-clock pass `trace_hb` replaced, kept as its oracle.
    mod dense {
        use std::collections::BTreeMap;

        use super::super::{check_spans, AccessSpan, RaceReport};
        use crate::event::{Event, EventRecord, Lane};

        /// A dense vector clock: one component per `(rank, lane)` thread.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct VectorClock(Vec<u64>);

        impl VectorClock {
            fn zero(n: usize) -> Self {
                VectorClock(vec![0; n])
            }

            fn join(&mut self, other: &VectorClock) {
                for (a, b) in self.0.iter_mut().zip(&other.0) {
                    *a = (*a).max(*b);
                }
            }

            fn tick(&mut self, thread: usize) {
                self.0[thread] += 1;
            }

            /// Pointwise `self <= other`: every component at most the other's.
            pub fn le(&self, other: &VectorClock) -> bool {
                self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
            }
        }

        /// The relation with one dense clock per event.
        pub struct DenseHb {
            clocks: Vec<Vec<VectorClock>>,
            pub n_threads: usize,
            pub msg_edges: Vec<(u64, usize, usize)>,
            pub reduce_edges: usize,
            pub errors: Vec<String>,
        }

        impl DenseHb {
            pub fn n_events(&self) -> usize {
                self.clocks.iter().map(Vec::len).sum()
            }

            pub fn ordered(&self, r1: usize, i1: usize, r2: usize, i2: usize) -> bool {
                self.clocks[r1][i1].le(&self.clocks[r2][i2])
            }

            pub fn check(&self, spans: &[AccessSpan], lanes: &[Vec<Lane>]) -> RaceReport {
                check_spans(spans, lanes, |r1, i1, r2, i2| self.ordered(r1, i1, r2, i2))
            }
        }

        /// Per-rank cursor state of the fixpoint pass.
        struct RankState {
            pos: usize,
            mpe: VectorClock,
            cpe: BTreeMap<u64, VectorClock>,
            prog: VectorClock,
            wire: VectorClock,
        }

        /// The dense pass `super::trace_hb` replaced: one full clock cloned per
        /// event, threads keyed by `(rank, Lane)`.
        pub fn trace_hb(snapshot: &[Vec<EventRecord>]) -> DenseHb {
            let n_ranks = snapshot.len();
            // Pre-pass: number the threads.
            let mut threads = BTreeMap::new();
            for (r, buf) in snapshot.iter().enumerate() {
                for rec in buf {
                    let next = threads.len();
                    threads.entry((r, rec.lane)).or_insert(next);
                }
            }
            let nt = threads.len();
            let mut states: Vec<RankState> = (0..n_ranks)
                .map(|_| RankState {
                    pos: 0,
                    mpe: VectorClock::zero(nt),
                    cpe: BTreeMap::new(),
                    prog: VectorClock::zero(nt),
                    wire: VectorClock::zero(nt),
                })
                .collect();
            let mut clocks: Vec<Vec<VectorClock>> = snapshot
                .iter()
                .map(|b| Vec::with_capacity(b.len()))
                .collect();
            let mut posted: BTreeMap<u64, (usize, VectorClock)> = BTreeMap::new();
            let mut contribs: BTreeMap<usize, (usize, VectorClock)> = BTreeMap::new();
            let mut msg_edges = Vec::new();
            let mut reduce_edges = 0usize;
            let mut errors = Vec::new();
            // `force` releases parked ranks after a no-progress round.
            let mut force = false;
            loop {
                let mut progressed = false;
                for r in 0..n_ranks {
                    while states[r].pos < snapshot[r].len() {
                        let idx = states[r].pos;
                        let rec = &snapshot[r][idx];
                        let tid = threads[&(r, rec.lane)];
                        // Park on unavailable cross-rank inputs (unless forced).
                        match &rec.event {
                            Event::MsgDelivered { msg, .. }
                                if !posted.contains_key(msg) && !force =>
                            {
                                break
                            }
                            Event::ReduceDone { step } => {
                                let have = contribs.get(step).map_or(0, |(n, _)| *n);
                                if have < n_ranks && !force {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        let st = &mut states[r];
                        let vc = match (&rec.event, rec.lane) {
                            (Event::OffloadStart { .. }, Lane::Cpe(k)) => {
                                // Fork: the kernel starts with everything the MPE
                                // has seen at the spawn point.
                                let mpe = st.mpe.clone();
                                let cpe = st.cpe.entry(u64::from(k)).or_insert_with(|| mpe.clone());
                                cpe.join(&mpe);
                                cpe.tick(tid);
                                cpe.clone()
                            }
                            (Event::OffloadDone { .. }, Lane::Cpe(k)) => {
                                // Join: recorded at the harvest point, so the MPE
                                // has observed completion from here on.
                                let cpe = st.cpe.entry(u64::from(k)).or_insert_with(|| {
                                    VectorClock::zero(nt) // done without start: still a thread
                                });
                                cpe.tick(tid);
                                let done = cpe.clone();
                                st.mpe.join(&done);
                                done
                            }
                            (_, Lane::Cpe(k)) => {
                                // DMA windows and other CPE-lane bookkeeping:
                                // program order within the kernel span.
                                let cpe = st
                                    .cpe
                                    .entry(u64::from(k))
                                    .or_insert_with(|| VectorClock::zero(nt));
                                cpe.tick(tid);
                                cpe.clone()
                            }
                            (_, Lane::Wire) => {
                                // Wire bookkeeping is recorded by the MPE thread;
                                // it synchronizes nothing itself (delivery edges
                                // come from MsgPosted/MsgDelivered).
                                st.wire.join(&st.mpe);
                                st.wire.tick(tid);
                                st.wire.clone()
                            }
                            (Event::MsgDelivered { msg, .. }, Lane::Progress) => {
                                // Dedicated-progress-lane delivery: the message edge
                                // lands on the progress thread, and the completion
                                // joins into the MPE (the model makes it visible to
                                // the host from this point on — the next recv poll
                                // observes it).
                                if let Some((src, pvc)) = posted.get(msg) {
                                    st.prog.join(pvc);
                                    msg_edges.push((*msg, *src, r));
                                } else {
                                    errors.push(format!(
                                        "rank {r}: MsgDelivered(msg {msg}) with no recorded MsgPosted"
                                    ));
                                }
                                st.prog.tick(tid);
                                st.mpe.join(&st.prog);
                                st.prog.clone()
                            }
                            (_, Lane::Progress) => {
                                // Other progress-lane protocol actions: program
                                // order on the progress thread only.
                                st.prog.tick(tid);
                                st.prog.clone()
                            }
                            (Event::MsgPosted { msg, peer, .. }, _) => {
                                st.mpe.tick(tid);
                                posted.insert(*msg, (r, st.mpe.clone()));
                                let _ = peer;
                                st.mpe.clone()
                            }
                            (Event::MsgDelivered { msg, .. }, _) => {
                                if let Some((src, pvc)) = posted.get(msg) {
                                    st.mpe.join(pvc);
                                    msg_edges.push((*msg, *src, r));
                                } else {
                                    errors.push(format!(
                                        "rank {r}: MsgDelivered(msg {msg}) with no recorded MsgPosted"
                                    ));
                                }
                                st.mpe.tick(tid);
                                st.mpe.clone()
                            }
                            (Event::ReduceContribute { step }, _) => {
                                st.mpe.tick(tid);
                                let entry = contribs
                                    .entry(*step)
                                    .or_insert_with(|| (0, VectorClock::zero(nt)));
                                entry.0 += 1;
                                entry.1.join(&st.mpe);
                                st.mpe.clone()
                            }
                            (Event::ReduceDone { step }, _) => {
                                match contribs.get(step) {
                                    Some((n, joined)) => {
                                        if *n < n_ranks {
                                            errors.push(format!(
                                                "rank {r}: ReduceDone(step {step}) with {n}/{n_ranks} \
                                                 contributions recorded"
                                            ));
                                        }
                                        let joined = joined.clone();
                                        st.mpe.join(&joined);
                                        reduce_edges += 1;
                                    }
                                    None => errors.push(format!(
                                        "rank {r}: ReduceDone(step {step}) with no contributions"
                                    )),
                                }
                                st.mpe.tick(tid);
                                st.mpe.clone()
                            }
                            _ => {
                                // Every other MPE-lane event: program order only.
                                st.mpe.tick(tid);
                                st.mpe.clone()
                            }
                        };
                        clocks[r].push(vc);
                        states[r].pos += 1;
                        progressed = true;
                        force = false;
                    }
                }
                if states
                    .iter()
                    .enumerate()
                    .all(|(r, s)| s.pos >= snapshot[r].len())
                {
                    break;
                }
                if !progressed {
                    if force {
                        // Even forced processing made no progress: impossible, but
                        // never loop forever.
                        errors.push("trace processing wedged".to_string());
                        break;
                    }
                    force = true;
                }
            }
            DenseHb {
                clocks,
                n_threads: nt,
                msg_edges,
                reduce_edges,
                errors,
            }
        }
    }

    fn rec(lane: Lane, event: Event) -> EventRecord {
        EventRecord {
            at_ps: 0,
            wall_ns: None,
            lane,
            event,
        }
    }

    fn span(rank: usize, start: usize, end: usize, resource: u64, kind: AccessKind) -> AccessSpan {
        AccessSpan {
            rank,
            start,
            end,
            resource,
            kind,
            what: format!("r{rank}[{start}..{end}] res {resource}"),
        }
    }

    fn lanes(snap: &[Vec<EventRecord>]) -> Vec<Vec<Lane>> {
        snap.iter()
            .map(|b| b.iter().map(|r| r.lane).collect())
            .collect()
    }

    #[test]
    fn message_edge_orders_cross_rank_accesses() {
        // Rank 0 writes then posts; rank 1 delivers then reads: ordered.
        let snap = vec![
            vec![
                rec(Lane::Mpe, Event::TaskStart { patch: 0, stage: 0 }),
                rec(Lane::Mpe, Event::TaskEnd { patch: 0, stage: 0 }),
                rec(
                    Lane::Mpe,
                    Event::MsgPosted {
                        msg: 7,
                        peer: 1,
                        tag: 0,
                        bytes: 8,
                        eager: true,
                    },
                ),
            ],
            vec![
                rec(
                    Lane::Mpe,
                    Event::MsgDelivered {
                        msg: 7,
                        peer: 0,
                        tag: 0,
                        bytes: 8,
                    },
                ),
                rec(Lane::Mpe, Event::TaskStart { patch: 1, stage: 0 }),
            ],
        ];
        let hb = trace_hb(&snap);
        assert!(hb.errors.is_empty(), "{:?}", hb.errors);
        assert_eq!(hb.msg_edges, vec![(7, 0, 1)]);
        assert!(hb.ordered(0, 2, 1, 0), "post happens before delivery");
        assert!(!hb.ordered(1, 0, 0, 2), "not the other way around");
        let spans = [
            span(0, 0, 1, 42, AccessKind::Write),
            span(1, 1, 1, 42, AccessKind::Read),
        ];
        let report = hb.check(&spans, &lanes(&snap));
        assert_eq!(report.pairs_checked, 1);
        assert!(report.races.is_empty(), "{:?}", report.races);
    }

    #[test]
    fn unordered_conflicting_writes_race() {
        // Two ranks write the same resource with no connecting edge.
        let snap = vec![
            vec![rec(Lane::Mpe, Event::TaskStart { patch: 0, stage: 0 })],
            vec![rec(Lane::Mpe, Event::TaskStart { patch: 1, stage: 0 })],
        ];
        let hb = trace_hb(&snap);
        let spans = [
            span(0, 0, 0, 5, AccessKind::Write),
            span(1, 0, 0, 5, AccessKind::Write),
        ];
        let report = hb.check(&spans, &lanes(&snap));
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.races[0].resource, 5);
        // Read/read never conflicts; different resources never conflict.
        let ok = [
            span(0, 0, 0, 5, AccessKind::Read),
            span(1, 0, 0, 5, AccessKind::Read),
            span(1, 0, 0, 6, AccessKind::Write),
        ];
        assert!(hb.check(&ok, &lanes(&snap)).races.is_empty());
    }

    #[test]
    fn fork_join_orders_kernel_against_harvested_mpe_work() {
        let snap = vec![vec![
            rec(Lane::Mpe, Event::TaskStart { patch: 0, stage: 0 }), // 0: prep
            rec(Lane::Mpe, Event::TaskEnd { patch: 0, stage: 0 }),   // 1
            rec(Lane::Cpe(0), Event::OffloadStart { patch: 0, token: 1 }), // 2: fork
            rec(Lane::Mpe, Event::ProgressCall { actions: 0 }),      // 3: concurrent MPE
            rec(Lane::Cpe(0), Event::OffloadDone { patch: 0, token: 1 }), // 4: join
            rec(Lane::Mpe, Event::TaskStart { patch: 0, stage: 1 }), // 5: after harvest
        ]];
        let hb = trace_hb(&snap);
        assert!(hb.ordered(0, 1, 0, 2), "prep before kernel start");
        assert!(hb.ordered(0, 4, 0, 5), "kernel done before next prep");
        assert!(
            !hb.ordered(0, 3, 0, 4) || hb.ordered(0, 3, 0, 4),
            "smoke: comparison total"
        );
        // The concurrent MPE progress call is NOT ordered with the kernel
        // span in either direction.
        assert!(!hb.ordered(0, 2, 0, 3) && !hb.ordered(0, 3, 0, 2));
        // An unordered kernel-vs-MPE write pair on one rank is caught.
        let snap_lanes = lanes(&snap);
        let racy = [
            span(0, 2, 4, 9, AccessKind::Write), // kernel span
            {
                let mut s = span(0, 3, 3, 9, AccessKind::Write); // MPE during kernel
                s.what = "mpe progress write".into();
                s
            },
        ];
        assert_eq!(hb.check(&racy, &snap_lanes).races.len(), 1);
        // Ordered prep-vs-kernel pair is clean.
        let clean = [
            span(0, 0, 1, 9, AccessKind::Write),
            span(0, 2, 4, 9, AccessKind::Read),
        ];
        assert!(hb.check(&clean, &snap_lanes).races.is_empty());
    }

    #[test]
    fn reduction_joins_all_contributions() {
        let snap = vec![
            vec![
                rec(Lane::Mpe, Event::ReduceContribute { step: 0 }),
                rec(Lane::Mpe, Event::ReduceDone { step: 0 }),
            ],
            vec![
                rec(Lane::Mpe, Event::ReduceContribute { step: 0 }),
                rec(Lane::Mpe, Event::ReduceDone { step: 0 }),
            ],
        ];
        let hb = trace_hb(&snap);
        assert!(hb.errors.is_empty(), "{:?}", hb.errors);
        assert_eq!(hb.reduce_edges, 2);
        assert!(hb.ordered(0, 0, 1, 1), "contribute before the other's done");
        assert!(hb.ordered(1, 0, 0, 1));
    }

    #[test]
    fn delivery_without_post_is_a_structural_error() {
        let snap = vec![vec![rec(
            Lane::Mpe,
            Event::MsgDelivered {
                msg: 99,
                peer: 1,
                tag: 0,
                bytes: 8,
            },
        )]];
        let hb = trace_hb(&snap);
        assert_eq!(hb.errors.len(), 1);
        assert!(hb.errors[0].contains("msg 99"), "{}", hb.errors[0]);
        assert_eq!(hb.n_events(), 1, "the trace still drains");
    }

    #[test]
    fn partial_reduction_is_a_structural_error() {
        // Rank 1 never contributes: both completions are flagged, and the
        // join still carries the one contribution that was recorded.
        let snap = vec![
            vec![
                rec(Lane::Mpe, Event::ReduceContribute { step: 0 }),
                rec(Lane::Mpe, Event::ReduceDone { step: 0 }),
            ],
            vec![rec(Lane::Mpe, Event::ReduceDone { step: 0 })],
        ];
        let hb = trace_hb(&snap);
        assert_eq!(hb.errors.len(), 2, "{:?}", hb.errors);
        assert!(
            hb.errors[0].contains("1/2 contributions"),
            "{:?}",
            hb.errors
        );
        assert!(hb.ordered(0, 0, 1, 0));
        assert_eq!(hb.errors, dense::trace_hb(&snap).errors);
    }

    #[test]
    fn wide_cpe_slot_is_not_the_progress_thread() {
        // `Cpe(97)` and `Progress` share Perfetto tid 98; they are still
        // two threads, and nothing orders the kernel against the
        // progress-lane action recorded inside its window.
        assert_eq!(Lane::Cpe(97).tid(), Lane::PROGRESS_TID);
        let snap = vec![vec![
            rec(Lane::Cpe(97), Event::OffloadStart { patch: 0, token: 1 }), // 0
            rec(Lane::Progress, Event::RtsSent { msg: 3, peer: 1 }),        // 1
            rec(Lane::Cpe(97), Event::OffloadDone { patch: 0, token: 1 }),  // 2
        ]];
        let hb = trace_hb(&snap);
        assert_eq!(hb.n_threads(), 2);
        assert!(!hb.ordered(0, 0, 0, 1) && !hb.ordered(0, 1, 0, 2));
        let racy = [
            span(0, 0, 2, 9, AccessKind::Write),
            span(0, 1, 1, 9, AccessKind::Write),
        ];
        let report = hb.check(&racy, &lanes(&snap));
        assert_eq!(report.pairs_checked, 1, "not skipped as program order");
        assert_eq!(report.races.len(), 1);
    }

    /// A random causal trace: ranks are advanced in one global interleaving
    /// (so a delivery follows its post and a `ReduceDone` every
    /// contribution), over all four lane kinds including the wide slot.
    fn causal_trace(rng: &mut TestRng) -> Vec<Vec<EventRecord>> {
        let n = 1 + rng.below(3) as usize;
        let mut snap: Vec<Vec<EventRecord>> = vec![Vec::new(); n];
        let mut in_flight: Vec<(u64, usize)> = Vec::new();
        let mut running: Vec<Vec<u32>> = vec![Vec::new(); n];
        let (mut contributed, mut done) = (vec![0usize; n], vec![0usize; n]);
        let mut next_msg = 0u64;
        for _ in 0..10 + rng.below(70) {
            let r = rng.below(n as u64) as usize;
            let slot = [0, 1, 97][rng.below(3) as usize];
            let kernel = running[r].iter().position(|&s| s == slot);
            let (lane, event) = match rng.below(10) {
                0 => (Lane::Mpe, Event::TaskStart { patch: r, stage: 0 }),
                1 => (Lane::Mpe, Event::ProgressCall { actions: 0 }),
                2 if kernel.is_none() => {
                    running[r].push(slot);
                    (Lane::Cpe(slot), Event::OffloadStart { patch: r, token: 0 })
                }
                // DMA and completion records also turn up with no fork.
                2 | 3 => (Lane::Cpe(slot), Event::DmaIn { bytes: 8 }),
                4 => {
                    if let Some(k) = kernel {
                        running[r].remove(k);
                    }
                    (Lane::Cpe(slot), Event::OffloadDone { patch: r, token: 0 })
                }
                5 => {
                    let (msg, peer) = (next_msg, rng.below(n as u64) as usize);
                    next_msg += 1;
                    in_flight.push((msg, peer));
                    let post = Event::MsgPosted {
                        msg,
                        peer,
                        tag: 0,
                        bytes: 8,
                        eager: true,
                    };
                    snap[r].push(rec(Lane::Mpe, post));
                    let wire = Event::MsgOnWire {
                        msg,
                        src: r,
                        dst: peer,
                        bytes: 8,
                        deliver_ps: 0,
                    };
                    (Lane::Wire, wire)
                }
                6 => match in_flight.iter().position(|&(_, dst)| dst == r) {
                    Some(k) => {
                        let (msg, _) = in_flight.remove(k);
                        let delivery = Event::MsgDelivered {
                            msg,
                            peer: 0,
                            tag: 0,
                            bytes: 8,
                        };
                        ([Lane::Mpe, Lane::Progress][rng.below(2) as usize], delivery)
                    }
                    None => (Lane::Wire, Event::Mark { tag: "quiet" }),
                },
                7 => (Lane::Progress, Event::RtsSent { msg: 0, peer: r }),
                8 if contributed[r] == done[r] => {
                    contributed[r] += 1;
                    let step = done[r];
                    (Lane::Mpe, Event::ReduceContribute { step })
                }
                9 if contributed.iter().all(|&c| c > done[r]) => {
                    done[r] += 1;
                    let step = done[r] - 1;
                    (Lane::Mpe, Event::ReduceDone { step })
                }
                _ => (Lane::Mpe, Event::Barrier { step: done[r] }),
            };
            snap[r].push(rec(lane, event));
        }
        snap
    }

    /// Remove the `pick`-th record matching `which`, if there is one.
    fn drop_one(snap: &mut [Vec<EventRecord>], pick: u64, which: fn(&Event) -> bool) {
        let hits: Vec<(usize, usize)> = snap
            .iter()
            .enumerate()
            .flat_map(|(r, buf)| (0..buf.len()).map(move |i| (r, i)))
            .filter(|&(r, i)| which(&snap[r][i].event))
            .collect();
        if !hits.is_empty() {
            let (r, i) = hits[pick as usize % hits.len()];
            snap[r].remove(i);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The epoch test is the dense vector-clock order: every event
        /// pair, every count, every structural error and every verdict of
        /// `check` agree with the dense pass — on causal traces, on traces
        /// with a delivery whose post is gone, and on traces with a
        /// missing reduction contribution.
        #[test]
        fn epochs_agree_with_dense_clocks(seed in any::<u64>()) {
            let mut rng = TestRng::from_seed(seed);
            let mut snap = causal_trace(&mut rng);
            match rng.below(3) {
                0 => {}
                1 => drop_one(&mut snap, rng.next_u64(), |e| matches!(e, Event::MsgPosted { .. })),
                _ => drop_one(&mut snap, rng.next_u64(), |e| {
                    matches!(e, Event::ReduceContribute { .. })
                }),
            }
            let (hb, oracle) = (trace_hb(&snap), dense::trace_hb(&snap));
            prop_assert_eq!(&hb.errors, &oracle.errors);
            prop_assert_eq!(&hb.msg_edges, &oracle.msg_edges);
            prop_assert_eq!(hb.reduce_edges, oracle.reduce_edges);
            prop_assert_eq!(hb.n_threads(), oracle.n_threads);
            prop_assert_eq!(hb.n_events(), oracle.n_events());
            let events: Vec<(usize, usize)> = snap
                .iter()
                .enumerate()
                .flat_map(|(r, buf)| (0..buf.len()).map(move |i| (r, i)))
                .collect();
            for &(r1, i1) in &events {
                for &(r2, i2) in &events {
                    prop_assert_eq!(
                        hb.ordered(r1, i1, r2, i2),
                        oracle.ordered(r1, i1, r2, i2),
                        "({}, {}) -> ({}, {}) in {:?}", r1, i1, r2, i2, snap
                    );
                }
            }
            // Random spans over few resources, so most pairs conflict.
            let spans: Vec<AccessSpan> = (0..if events.is_empty() { 0 } else { 24 })
                .map(|_| {
                    let (rank, start) = events[rng.below(events.len() as u64) as usize];
                    let end = start + rng.below((snap[rank].len() - start) as u64) as usize;
                    let kind = [AccessKind::Read, AccessKind::Write][rng.below(2) as usize];
                    span(rank, start, end, rng.below(3), kind)
                })
                .collect();
            let (got, want) = (hb.check(&spans, &lanes(&snap)), oracle.check(&spans, &lanes(&snap)));
            prop_assert_eq!(got.accesses, want.accesses);
            prop_assert_eq!(got.pairs_checked, want.pairs_checked);
            prop_assert_eq!(got.races, want.races);
        }
    }
}
