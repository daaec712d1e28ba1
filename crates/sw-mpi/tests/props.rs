//! Property tests of the simulated MPI layer: matching order, payload
//! integrity, and eventual delivery under arbitrary interleavings.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sw_mpi::{CommConfig, MpiWorld, RecvHandle, SendHandle};
use sw_sim::{Machine, MachineConfig, MachineEvent, SimTime};

/// Pump all pending machine events into the world.
fn drain(m: &mut Machine, w: &mut MpiWorld) {
    while let Some((_, ev)) = m.pop() {
        if let MachineEvent::NetDeliver { token, .. } = ev {
            w.on_wire(token);
        }
    }
}

/// Progress every rank until nothing changes and no events remain.
fn settle(m: &mut Machine, w: &mut MpiWorld, n: usize) {
    loop {
        drain(m, w);
        let now = m.now();
        let acted: usize = (0..n).map(|r| w.progress(r, &mut m.ctx(r), now)).sum();
        if acted == 0 && m.peek_time().is_none() {
            break;
        }
    }
}

type Channel = (usize, usize, u64);

/// The naive reference: MPI pairs the k-th send on a `(dst, src, tag)`
/// channel with the k-th receive posted on it, whichever of the two comes
/// first, and hands each receive its partner's payload exactly once.
#[derive(Default)]
struct Model {
    sent: BTreeMap<Channel, Vec<f64>>,
    posted: BTreeMap<Channel, Vec<RecvHandle>>,
    slot: BTreeMap<RecvHandle, (Channel, usize)>,
    delivered: BTreeMap<RecvHandle, f64>,
}

impl Model {
    fn send(&mut self, ch: Channel, stamp: f64) {
        self.sent.entry(ch).or_default().push(stamp);
    }

    fn post(&mut self, ch: Channel, h: RecvHandle) {
        let posted = self.posted.entry(ch).or_default();
        self.slot.insert(h, (ch, posted.len()));
        posted.push(h);
    }

    /// The payload `h` must deliver, once its partner send exists.
    fn partner(&self, h: RecvHandle) -> Option<f64> {
        let (ch, k) = self.slot[&h];
        self.sent.get(&ch)?.get(k).copied()
    }

    /// Record a delivery; `Err` names what the library got wrong.
    fn deliver(&mut self, h: RecvHandle, payload: Option<Vec<f64>>) -> Result<(), String> {
        let got = payload.ok_or_else(|| format!("{h:?} completed without its payload"))?[0];
        if self.partner(h) != Some(got) {
            let want = self.partner(h);
            return Err(format!(
                "{h:?} delivered {got}, channel order says {want:?}"
            ));
        }
        match self.delivered.insert(h, got) {
            None => Ok(()),
            Some(_) => Err(format!("{h:?} completed twice")),
        }
    }
}

/// The library under one comm setting, the model beside it, and every
/// handle handed out so far (with the rank that owns it).
struct Harness {
    m: Machine,
    w: MpiWorld,
    model: Model,
    n: usize,
    next_stamp: f64,
    sends: Vec<(usize, SendHandle)>,
    recvs: Vec<(usize, RecvHandle)>,
    drained: Vec<(RecvHandle, Option<Vec<f64>>)>,
}

impl Harness {
    fn new(n: usize, comm: CommConfig) -> Self {
        let mut w = MpiWorld::new(n);
        w.set_comm(comm);
        Harness {
            m: Machine::new(MachineConfig::sw26010(), n),
            w,
            model: Model::default(),
            n,
            next_stamp: 0.0,
            sends: Vec::new(),
            recvs: Vec::new(),
            drained: Vec::new(),
        }
    }

    fn isend(&mut self, src: usize, dst: usize, tag: u64, bytes: u64) {
        let now = self.m.now();
        let stamp = self.next_stamp;
        self.next_stamp += 1.0;
        let payload = Some(vec![stamp]);
        let h = self
            .w
            .isend(&mut self.m.ctx(src), src, dst, tag, bytes, payload, now);
        self.sends.push((src, h));
        self.model.send((dst, src, tag), stamp);
    }

    fn irecv(&mut self, dst: usize, src: usize, tag: u64) {
        let h = self.w.irecv(dst, src, tag);
        self.recvs.push((dst, h));
        self.model.post((dst, src, tag), h);
    }

    /// Pop one machine event into the world; `false` when none is queued.
    fn deliver_one(&mut self) -> bool {
        let Some((_, ev)) = self.m.pop() else {
            return false;
        };
        if let MachineEvent::NetDeliver { token, .. } = ev {
            self.w.on_wire(token);
        }
        true
    }

    /// One library entry on `rank` — a bare `progress`, or a `test` whose
    /// drained completions go through the model. Returns the action count.
    fn enter(&mut self, rank: usize, drain: bool) -> Result<usize, String> {
        // A staged aggregate only leaves at its deadline.
        let now = self
            .m
            .now()
            .max(self.w.next_flush_at(rank).unwrap_or(SimTime::ZERO));
        if !drain {
            return Ok(self.w.progress(rank, &mut self.m.ctx(rank), now));
        }
        let tested = self
            .w
            .test(rank, &mut self.m.ctx(rank), now, &mut self.drained);
        for (h, payload) in self.drained.drain(..) {
            self.model.deliver(h, payload)?;
        }
        Ok(tested.actions)
    }

    /// Which requests each rank can observe complete right now.
    fn visible(&self) -> Vec<(Vec<bool>, Vec<bool>)> {
        (0..self.n)
            .map(|r| {
                let of = |owner: &usize| *owner == r;
                (
                    (self.sends.iter().filter(|(o, _)| of(o)))
                        .map(|&(_, h)| self.w.send_done(h))
                        .collect(),
                    (self.recvs.iter().filter(|(o, _)| of(o)))
                        .map(|&(_, h)| self.w.recv_done(h))
                        .collect(),
                )
            })
            .collect()
    }

    /// Deliver and enter until nothing moves.
    fn settle(&mut self) -> Result<(), String> {
        loop {
            while self.deliver_one() {}
            let mut acted = 0;
            for r in 0..self.n {
                acted += self.enter(r, true)?;
            }
            if acted == 0 && self.m.peek_time().is_none() {
                return Ok(());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Protocol model check: random interleavings of eager, rendezvous and
    /// aggregated sends, receives posted before and after arrival, single
    /// wire deliveries and per-rank library entries (bare `progress` and
    /// completion-draining `test` mixed), against the naive reference.
    #[test]
    fn random_interleavings_agree_with_the_reference_model(
        n in 3usize..5,
        mode in 0u8..3,
        ops in prop::collection::vec((0u8..6, 0usize..4, 0usize..4, 0u64..2, 0u8..3), 1..120),
    ) {
        let comm = match mode {
            0 => CommConfig::default(),
            // 300-byte messages rendezvous.
            1 => CommConfig { eager_crossover: Some(256), ..CommConfig::default() },
            // 16-byte messages stage; 300-byte ones flush their buffer.
            // No rendezvous sizes here: a rendezvous RTS bypasses the
            // staging buffer and may overtake an eager message parked on
            // the same channel (see the aggregation note in `comm.rs`).
            _ => CommConfig {
                endpoints: 2,
                agg_bytes: 100,
                agg_deadline_ps: 1_000_000,
                ..CommConfig::default()
            },
        };
        let sizes = if comm.aggregation() { [16, 300, 300] } else { [16, 300, 1_000_000] };
        let mut hx = Harness::new(n, comm);
        for (kind, a, b, tag, size) in ops {
            let (a, b) = (a % n, if a % n == b % n { (b + 1) % n } else { b % n });
            let before = hx.visible();
            let entered = match kind {
                0 | 1 => {
                    hx.isend(a, b, tag, sizes[size as usize]);
                    None
                }
                2 => {
                    hx.irecv(a, b, tag);
                    None
                }
                3 => {
                    hx.deliver_one();
                    None
                }
                _ => {
                    if let Err(e) = hx.enter(a, kind == 5) {
                        prop_assert!(false, "{}", e);
                    }
                    Some(a)
                }
            };
            // Completion only becomes visible to a rank inside its own
            // library entry (eager sends complete at post: a new handle,
            // not a changed one).
            for (r, (now, was)) in hx.visible().iter().zip(&before).enumerate() {
                if entered != Some(r) {
                    prop_assert_eq!(&now.0[..was.0.len()], &was.0[..], "rank {} sends", r);
                    prop_assert_eq!(&now.1[..was.1.len()], &was.1[..], "rank {} recvs", r);
                }
            }
        }
        // Drain. Every receive with a partner completes with its payload;
        // a receive without one never does.
        if let Err(e) = hx.settle() {
            prop_assert!(false, "{}", e);
        }
        for &(_, h) in &hx.recvs {
            let partnered = hx.model.partner(h).is_some();
            prop_assert_eq!(hx.w.recv_done(h), partnered, "{:?}", h);
        }
        // Pair off what is left over on every channel, then drain again:
        // the world must come to rest with nothing live.
        let mut channels: Vec<Channel> = hx.model.sent.keys().copied().collect();
        channels.extend(hx.model.posted.keys());
        for ch @ (dst, src, tag) in channels {
            let sent = hx.model.sent.get(&ch).map_or(0, Vec::len);
            let posted = hx.model.posted.get(&ch).map_or(0, Vec::len);
            (posted..sent).for_each(|_| hx.irecv(dst, src, tag));
            (sent..posted).for_each(|_| hx.isend(src, dst, tag, 16));
        }
        if let Err(e) = hx.settle() {
            prop_assert!(false, "{}", e);
        }
        prop_assert!(hx.w.quiescent());
        prop_assert_eq!(hx.w.leaked(), vec![]);
        prop_assert!(hx.sends.iter().all(|&(_, h)| hx.w.send_done(h)));
        // Receives completed by a bare `progress` and never drained are
        // still there for their handle; everything was delivered once.
        for (_, h) in hx.recvs.clone() {
            if !hx.model.delivered.contains_key(&h) {
                prop_assert!(hx.w.recv_done(h), "{:?} never completed", h);
                let payload = hx.w.take_payload(h);
                if let Err(e) = hx.model.deliver(h, payload) {
                    prop_assert!(false, "{}", e);
                }
            }
        }
        prop_assert_eq!(hx.model.delivered.len(), hx.recvs.len());
    }
}

proptest! {
    /// Any batch of sends with matching receives completes, with payloads
    /// delivered FIFO per (src, dst, tag) channel — for eager and rendezvous
    /// sizes alike.
    #[test]
    fn all_messages_deliver_in_channel_order(
        spec in prop::collection::vec((0usize..3, 0usize..3, 0u64..3, 1u64..40_000), 1..25)
    ) {
        let n = 4;
        let mut m = Machine::new(MachineConfig::sw26010(), n);
        let mut w = MpiWorld::new(n);
        // Post all sends with sequence-stamped payloads.
        let mut per_channel: std::collections::BTreeMap<(usize, usize, u64), Vec<f64>> =
            Default::default();
        for (i, &(src_raw, dst_raw, tag, bytes)) in spec.iter().enumerate() {
            let src = src_raw;
            let dst = if dst_raw == src { (dst_raw + 1) % n } else { dst_raw };
            let stamp = i as f64;
            w.isend(&mut m.ctx(src), src, dst, tag, bytes, Some(vec![stamp]), SimTime::ZERO);
            per_channel.entry((src, dst, tag)).or_default().push(stamp);
        }
        // Post matching receives (channel by channel, FIFO) and settle.
        let mut handles = Vec::new();
        for (&(src, dst, tag), stamps) in &per_channel {
            for _ in stamps {
                handles.push(((src, dst, tag), w.irecv(dst, src, tag)));
            }
        }
        settle(&mut m, &mut w, n);
        prop_assert!(w.quiescent(), "all traffic must finish");
        // Payloads must arrive in the exact order sent per channel.
        let mut got: std::collections::BTreeMap<(usize, usize, u64), Vec<f64>> = Default::default();
        for (ch, h) in handles {
            prop_assert!(w.recv_done(h));
            got.entry(ch).or_default().push(w.take_payload(h).unwrap()[0]);
        }
        for (ch, stamps) in per_channel {
            prop_assert_eq!(&got[&ch], &stamps, "channel {:?}", ch);
        }
    }

    /// Receives posted *after* arrival still match (the unexpected-message
    /// queue), in send order.
    #[test]
    fn late_receives_match_the_unexpected_queue(
        count in 1usize..8,
        bytes in 1u64..50_000,
    ) {
        let mut m = Machine::new(MachineConfig::sw26010(), 2);
        let mut w = MpiWorld::new(2);
        for i in 0..count {
            w.isend(&mut m.ctx(0), 0, 1, 9, bytes, Some(vec![i as f64]), SimTime::ZERO);
        }
        // Let everything that can move without receives move.
        settle(&mut m, &mut w, 2);
        prop_assert!(!w.quiescent());
        let handles: Vec<_> = (0..count).map(|_| w.irecv(1, 0, 9)).collect();
        settle(&mut m, &mut w, 2);
        for (i, h) in handles.into_iter().enumerate() {
            prop_assert!(w.recv_done(h));
            prop_assert_eq!(w.take_payload(h).unwrap(), vec![i as f64]);
        }
        prop_assert!(w.quiescent());
    }

    /// A send is never reported complete before it legally can be: for
    /// rendezvous sizes, only after the receiver posted and both sides
    /// progressed.
    #[test]
    fn rendezvous_send_completion_requires_handshake(bytes in 20_000u64..1_000_000) {
        let mut m = Machine::new(MachineConfig::sw26010(), 2);
        let mut w = MpiWorld::new(2);
        let s = w.isend(&mut m.ctx(0), 0, 1, 1, bytes, None, SimTime::ZERO);
        prop_assert!(!w.send_done(s));
        // Sender progressing alone can never complete it.
        for _ in 0..3 {
            drain(&mut m, &mut w);
            let now = m.now();
            w.progress(0, &mut m.ctx(0), now);
        }
        prop_assert!(!w.send_done(s));
        let r = w.irecv(1, 0, 1);
        settle(&mut m, &mut w, 2);
        prop_assert!(w.send_done(s));
        prop_assert!(w.recv_done(r));
    }
}
