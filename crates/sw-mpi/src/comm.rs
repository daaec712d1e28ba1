//! Non-blocking point-to-point messaging with host-driven progression.
//!
//! The paper's scheduler design leans on a well-known MPI property: "in most
//! MPI implementations, the non-blocking sends and receives do not progress
//! without the help of the host processor" (§V-C, citing Denis & Trahay).
//! This layer reproduces that behaviour exactly:
//!
//! * small messages (≤ eager limit) are injected at `isend` time, but their
//!   *arrival only becomes visible* to the receiver at its next
//!   [`MpiWorld::progress`] call;
//! * large messages rendezvous: an RTS travels to the receiver, who — only
//!   while progressing, with a matching `irecv` posted — returns a CTS; the
//!   sender — only while progressing — then injects the payload.
//!
//! A synchronous scheduler that busy-spins on the completion flag makes no
//! progress calls during kernels, so rendezvous handshakes serialize after
//! compute; the asynchronous scheduler progresses while kernels run and
//! hides them. That is precisely the overlap the paper measures.
//!
//! Matching is MPI-ordered: posted receives match messages from a given
//! `(source, tag)` in message-id (send-program) order.
//!
//! # Queues, not polling
//!
//! The *modeled* MPE tests its requests on every pass of its loop (§V-C
//! step 3c); the *host* implementation does not re-walk them. All protocol
//! state is per rank (`RankState`) and every unit of work is handed to
//! the one rank that can perform it:
//!
//! * a wire delivery ([`MpiWorld::on_wire`]) pushes the message id onto the
//!   **inbox** of the rank that must act on it — the destination for an
//!   RTS, a payload or the members of a coalesced packet, the source for a
//!   CTS. An arrival no posted receive claims yet simply stays there (MPI's
//!   "unexpected" list), as does a lost payload waiting out its resend
//!   timer;
//! * [`MpiWorld::progress`] on a rank visits that inbox in ascending id
//!   order and nothing else, so its cost follows arrivals, not the number
//!   of requests in flight;
//! * a completed receive is appended to the rank's **completion queue** and
//!   a completed send bumps its completion count; [`MpiWorld::test`] — one
//!   library entry — progresses, drains both and reports what the library
//!   still holds for the rank, so a scheduler harvests in time proportional
//!   to completions. [`MpiWorld::recv_done`]/[`MpiWorld::send_done`] remain
//!   for callers that hold a handle and want to poll it;
//! * message and receive records live in per-rank dense stores indexed by
//!   sequence number (ids are `rank + n * seq`), so lookup and retirement
//!   are O(1) and a finished record's slot is reclaimed at once.
//!
//! # Multi-endpoint mode, aggregation, and the progress lane
//!
//! [`CommConfig`] layers three orthogonal refinements on the base protocol
//! (all off by default, all timing-only — the warehouse bytes of a run
//! never depend on them):
//!
//! * **Endpoints** — each rank's NIC is split into `endpoints` independent
//!   injection lanes (the `hypre_ep` threads-as-endpoints idea). A message
//!   is routed to `fold([src, dst, tag]) % endpoints`: a pure function of
//!   message identity, so both sides (and every control packet of the
//!   message) agree on the lane without coordination.
//! * **Aggregation** — eager payloads are parked in per-(destination,
//!   endpoint) staging buffers and flushed as one coalesced wire packet
//!   when the buffered bytes cross [`CommConfig::agg_bytes`] (at push) or
//!   the oldest member ages past [`CommConfig::agg_deadline_ps`] (at the
//!   next `progress` call). Members unpack at the receiver in push order;
//!   matching is unchanged because per-source ids stay ascending. (Only
//!   among staged messages: a rendezvous RTS does not wait for the buffer,
//!   so it can overtake an eager message parked on the same `(src, dst,
//!   tag)` channel. The runtime never reuses a tag within a step.)
//! * **Crossover** — [`CommConfig::eager_crossover`] overrides the
//!   machine's eager limit, moving the eager/rendezvous boundary per run.
//!
//! Independently, [`MpiWorld::progress_on`] lets the controller drive the
//! protocol from a *dedicated progress lane* ([`Lane::Progress`]) at wire
//! delivery time, relaxing the progression-requires-host rule as a modeled
//! machine variant.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use sw_resilience::{fold, FaultPlan, FaultStats, MsgFault, MsgKey};
use sw_sim::{CgId, MachineCtx, SimDur, SimTime};
use sw_telemetry::{Event, Lane, Recorder};

/// Rank in the simulated communicator (identical to the CG id: one MPI
/// process per CG, paper §V-B).
pub type Rank = CgId;

/// Message tag.
pub type Tag = u64;

/// First tag of the reserved control-plane namespace.
///
/// Application tags must be **strictly below** this value; everything at or
/// above is reserved for the library's own control traffic (present and
/// future). [`MpiWorld::isend`] and [`MpiWorld::irecv`] reject reserved
/// tags at the constructor, so an app-level tag scheme (e.g. the runtime's
/// `ghost_tag`) can never alias a control-plane stream no matter how many
/// steps, stages, or patches it multiplies together — the overflow is
/// caught here instead of silently matching the wrong message.
pub const APP_TAG_LIMIT: Tag = 1 << 62;

/// Largest message id the wire-token encoding carries injectively.
///
/// Wire tokens pack `(message id, phase)` as `id << 2 | phase`. The shift
/// discards the top two bits of the id, so ids above this bound would
/// alias: an `encode(id, PH_ACK)` for one message could decode as a
/// different message's token and retire the wrong send. [`MpiWorld::isend`]
/// refuses to allocate ids past this bound, making
/// `decode(encode(id, phase)) == (id, phase)` a total guarantee.
pub const MAX_MSG_ID: u64 = (1 << 62) - 1;

/// Size of the RTS/CTS/ACK control messages on the wire — also the
/// padding floor for eager payloads, making it the smallest packet the
/// model can emit (the static lookahead proof's per-channel minimum).
pub const CTRL_BYTES: u64 = 64;

/// Index of one NIC injection lane within a rank (multi-endpoint MPI).
pub type EndpointId = u32;

/// Domain-separation discriminant for the endpoint-routing hash (see
/// [`CommConfig::route`]); mirrors the fault plane's `D_*` constants.
const D_ENDPOINT: u64 = 0x4550_4f49_4e54; // "EPOINT"

/// Communication-layer tuning knobs (multi-endpoint MPI, message
/// aggregation, eager/rendezvous crossover, dedicated progress lane).
///
/// The default is the pre-existing behaviour: one endpoint, no
/// aggregation, the machine's eager limit, host-driven progression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommConfig {
    /// NIC injection lanes per rank (>= 1). Messages are spread across
    /// lanes by [`CommConfig::route`]; different lanes do not serialize
    /// against each other at injection.
    pub endpoints: u32,
    /// Aggregation flush threshold in payload bytes; `0` disables
    /// aggregation entirely.
    pub agg_bytes: u64,
    /// Aggregation flush deadline in picoseconds: a staging buffer older
    /// than this is flushed by the next `progress` call on the sender.
    /// Must be non-zero whenever `agg_bytes` is (validated upstream).
    pub agg_deadline_ps: u64,
    /// Eager/rendezvous crossover in bytes (`bytes <= crossover` goes
    /// eager); `None` uses the machine's `eager_limit_bytes`.
    pub eager_crossover: Option<u64>,
    /// Drive protocol progression from a dedicated lane at wire-delivery
    /// time (consumed by the controller, not by this crate's logic).
    pub progress_lane: bool,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            endpoints: 1,
            agg_bytes: 0,
            agg_deadline_ps: 0,
            eager_crossover: None,
            progress_lane: false,
        }
    }
}

impl CommConfig {
    /// Whether message aggregation is enabled.
    pub fn aggregation(&self) -> bool {
        self.agg_bytes > 0
    }

    /// Deterministic message → endpoint routing: a pure function of the
    /// message identity `(src, dst, tag)`, so the sender, the receiver,
    /// and every control packet of the message agree on the lane.
    pub fn route(&self, src: Rank, dst: Rank, tag: Tag) -> EndpointId {
        if self.endpoints <= 1 {
            return 0;
        }
        (fold(&[D_ENDPOINT, src as u64, dst as u64, tag]) % u64::from(self.endpoints)) as EndpointId
    }
}

/// Handle to a posted non-blocking send.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SendHandle(u64);

/// Handle to a posted non-blocking receive. Handles order by post order
/// within a rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecvHandle(u64);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MsgState {
    /// Aggregation: eager payload parked in a staging buffer on the
    /// sender, waiting for a byte- or deadline-triggered flush. The send
    /// request is complete (the library buffers the payload).
    Staged,
    /// Rendezvous: RTS on the wire.
    RtsInFlight,
    /// Rendezvous: RTS at the receiver, waiting for match + progress.
    RtsArrived,
    /// Rendezvous: CTS on the wire back to the sender.
    CtsInFlight,
    /// Rendezvous: CTS at the sender, waiting for sender progress.
    CtsArrived,
    /// Payload on the wire.
    DataInFlight,
    /// Payload at the receiver, waiting for match + progress.
    DataArrived,
    /// Reliable mode: payload dropped by the fault plane; the sender's
    /// resend timer ([`Msg::deadline`]) is the only way forward.
    DataLost,
    /// Reliable mode: consumed at the receiver, ack in flight back to the
    /// sender; the message retires when the ack lands.
    AckWait,
}

#[derive(Debug)]
struct Msg {
    src: Rank,
    dst: Rank,
    tag: Tag,
    bytes: u64,
    payload: Option<Vec<f64>>,
    state: MsgState,
    eager: bool,
    /// NIC injection lane every packet of this message rides (both
    /// directions — the routing is a pure function of message identity).
    endpoint: EndpointId,
    matched_recv: Option<u64>,
    send_complete: bool,
    /// Reliable mode: payload transmission attempt, starting at 0.
    attempt: u32,
    /// Reliable mode: absolute time at which the sender declares the
    /// current attempt lost and resends (armed only on a real drop).
    deadline: Option<SimTime>,
}

/// One slot of a rank's send store: a message, or a coalesced batch in
/// flight (member ids in push order). Batch ids are minted from the same
/// per-sender sequence as message ids, so they never collide.
#[derive(Debug)]
enum Sent {
    Msg(Msg),
    Batch(Vec<u64>),
}

#[derive(Debug)]
struct RecvReq {
    complete: bool,
    payload: Option<Vec<f64>>,
}

/// One per-(destination, endpoint) aggregation staging buffer on a sender.
/// An empty buffer stays in its rank's map: the key set is bounded by
/// neighbours x endpoints.
#[derive(Debug, Default)]
struct StageBuf {
    /// Member message ids in push (send-program) order.
    members: Vec<u64>,
    /// Sum of member payload bytes.
    bytes: u64,
    /// When the buffer was opened (first push) — the deadline clock.
    opened_at: SimTime,
}

/// Dense store of the records one rank minted. Ids are `rank + n * seq`
/// with `seq` counting up from zero, so the record of sequence number `seq`
/// sits at `seq - base` of a deque: O(1) lookup, O(1) retirement (the slot
/// empties, and emptied slots at the front pop), and a length that follows
/// the span of live traffic rather than run history.
#[derive(Debug)]
struct Dense<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
}

// Not derived: an empty store needs no `T: Default`.
impl<T> Default for Dense<T> {
    fn default() -> Self {
        Dense {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<T> Dense<T> {
    /// The sequence number the next [`Dense::push`] returns — every smaller
    /// one was minted, which makes this the O(1) record of all ids ever
    /// handed out.
    fn next_seq(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    fn push(&mut self, v: T) -> u64 {
        let seq = self.next_seq();
        self.slots.push_back(Some(v));
        seq
    }

    fn index(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.base)?).ok()
    }

    fn get(&self, seq: u64) -> Option<&T> {
        self.slots.get(self.index(seq)?)?.as_ref()
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let i = self.index(seq)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Remove and return the record, reclaiming every emptied front slot.
    fn free(&mut self, seq: u64) -> Option<T> {
        let i = self.index(seq)?;
        let v = self.slots.get_mut(i)?.take();
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        v
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

/// Everything the library holds for one rank. Work is always queued on the
/// rank that must perform it, so `progress` on a rank reads and writes its
/// own state plus the records of the messages in its inbox.
#[derive(Debug, Default)]
struct RankState {
    /// Messages (and coalesced batches) this rank sent.
    sent: Dense<Sent>,
    /// Receives this rank posted.
    recvs: Dense<RecvReq>,
    /// Messages in `sent` not yet retired: consumed by the receiver in a
    /// clean run, acknowledged in reliable mode.
    live_sends: usize,
    /// Message ids this rank must look at on its next `progress`, in
    /// arrival order: RTS and payload arrivals (this rank is the
    /// destination), CTS arrivals and lost payloads awaiting their resend
    /// deadline (this rank is the source). An entry stays until the rank
    /// acts on it, so arrivals no posted receive matches yet — MPI's
    /// unexpected list — wait here.
    inbox: Vec<u64>,
    /// Unmatched posted receives as `(src, tag, recv id)`; within one
    /// `(src, tag)` ascending receive id is post order, i.e. MPI FIFO.
    posted: BTreeSet<(Rank, Tag, u64)>,
    /// Aggregation staging buffers by `(dst, endpoint)`; ascending key
    /// order is the deadline-flush (NIC injection and trace) order.
    stage: BTreeMap<(Rank, EndpointId), StageBuf>,
    /// Messages parked across `stage`.
    staged: usize,
    /// Completed receives not yet drained by [`MpiWorld::test`], in
    /// completion order.
    recv_cq: VecDeque<u64>,
    /// Sends completed since the last [`MpiWorld::test`].
    sends_completed: usize,
}

/// What one [`MpiWorld::test`] entry did, and what the library still holds
/// for the rank afterwards — the facts a scheduler gates its next entry,
/// its end of step and its wakeup timer on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tested {
    /// Protocol actions taken (see [`MpiWorld::progress`]).
    pub actions: usize,
    /// Sends whose buffer was released since the previous entry (eager and
    /// staged sends complete at post and are reported by the next entry).
    pub sends_completed: usize,
    /// [`MpiWorld::unacked`] after the call.
    pub unacked: usize,
    /// [`MpiWorld::staged`] after the call.
    pub staged: usize,
    /// [`MpiWorld::next_deadline`] after the call.
    pub next_deadline: Option<SimTime>,
    /// [`MpiWorld::next_flush_at`] after the call.
    pub next_flush_at: Option<SimTime>,
}

/// The simulated communicator.
///
/// ```
/// use sw_mpi::MpiWorld;
/// use sw_sim::{Machine, MachineConfig, MachineEvent, SimTime};
///
/// let mut m = Machine::new(MachineConfig::sw26010(), 2);
/// let mut w = MpiWorld::new(2);
/// // Eager send with a functional payload.
/// let s = w.isend(&mut m.ctx(0), 0, 1, 42, 8, Some(vec![3.5]), SimTime::ZERO);
/// let r = w.irecv(1, 0, 42);
/// // Drain wire events, then let the receiving host progress the library.
/// while let Some((_, ev)) = m.pop() {
///     if let MachineEvent::NetDeliver { token, .. } = ev {
///         w.on_wire(token);
///     }
/// }
/// let now = m.now();
/// w.progress(1, &mut m.ctx(1), now);
/// assert!(w.send_done(s) && w.recv_done(r));
/// assert_eq!(w.take_payload(r), Some(vec![3.5]));
/// ```
#[derive(Debug)]
pub struct MpiWorld {
    /// Per-rank protocol state. Message and receive ids are drawn from
    /// per-rank namespaces (`id = rank + n * seq`) so that concurrently
    /// advancing shards mint identical ids regardless of interleaving —
    /// the PDES bit-identity guarantee depends on it. Within one source
    /// the ids stay ascending in send-program order (MPI FIFO).
    ranks: Vec<RankState>,
    /// Completed receives.
    pub recvs_completed: u64,
    /// Telemetry sink for protocol events (disabled by default).
    rec: Recorder,
    /// Optional fault plan: when set, payload transmission goes through the
    /// *reliable* layer (fault consult at injection, ack on consumption,
    /// resend on timeout, duplicate suppression).
    faults: Option<Arc<FaultPlan>>,
    /// Communication-layer knobs (endpoints, aggregation, crossover).
    comm: CommConfig,
}

/// Decode a wire token into (message id, phase).
fn decode(token: u64) -> (u64, u8) {
    (token >> 2, (token & 3) as u8)
}
fn encode(id: u64, phase: u8) -> u64 {
    // Injectivity: ids are capped at `MAX_MSG_ID` (enforced at `isend`),
    // so the shift cannot discard bits and every (id, phase) pair maps to
    // a distinct token.
    assert!(
        id <= MAX_MSG_ID,
        "message id {id} overflows the wire-token namespace"
    );
    debug_assert!(phase < 4);
    (id << 2) | phase as u64
}
const PH_RTS: u8 = 0;
const PH_CTS: u8 = 1;
const PH_DATA: u8 = 2;
/// Reliable-mode delivery acknowledgement (receiver → sender control
/// packet; retires the message when it lands at the sender's NIC).
const PH_ACK: u8 = 3;

impl MpiWorld {
    /// A communicator of `n` ranks.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        MpiWorld {
            ranks: (0..n).map(|_| RankState::default()).collect(),
            recvs_completed: 0,
            rec: Recorder::off(),
            faults: None,
            comm: CommConfig::default(),
        }
    }

    /// Thread a telemetry recorder through the protocol events.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// Install a fault plan, switching payload transmission to the
    /// reliable (ack + resend) layer.
    ///
    /// # Panics
    /// Panics if message aggregation is enabled: a coalesced packet has no
    /// per-member fault/ack story, so the combination is rejected (typed
    /// upstream as `ConfigError::AggregationWithFaults`, asserted here as
    /// the last line of defence).
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        assert!(
            !self.comm.aggregation(),
            "message aggregation and the reliable fault layer are mutually exclusive"
        );
        self.faults = Some(plan);
    }

    /// Install the communication-layer knobs (endpoints, aggregation,
    /// crossover). Call before any traffic is posted.
    ///
    /// # Panics
    /// Panics on `endpoints == 0`, on aggregation combined with a fault
    /// plan, and on aggregation with a zero deadline (the byte threshold
    /// alone cannot guarantee a flush, so quiescence would be unreachable).
    pub fn set_comm(&mut self, comm: CommConfig) {
        assert!(comm.endpoints >= 1, "endpoints must be >= 1");
        if comm.aggregation() {
            assert!(
                self.faults.is_none(),
                "message aggregation and the reliable fault layer are mutually exclusive"
            );
            assert!(
                comm.agg_deadline_ps > 0,
                "aggregation needs a non-zero flush deadline"
            );
        }
        self.comm = comm;
    }

    /// Split an id into the rank that minted it and its sequence number.
    fn split(&self, id: u64) -> (Rank, u64) {
        let n = self.ranks.len() as u64;
        ((id % n) as Rank, id / n)
    }

    fn msg(&self, id: u64) -> Option<&Msg> {
        let (src, seq) = self.split(id);
        match self.ranks[src].sent.get(seq)? {
            Sent::Msg(m) => Some(m),
            Sent::Batch(_) => None,
        }
    }

    fn msg_mut(&mut self, id: u64) -> Option<&mut Msg> {
        let (src, seq) = self.split(id);
        match self.ranks[src].sent.get_mut(seq)? {
            Sent::Msg(m) => Some(m),
            Sent::Batch(_) => None,
        }
    }

    /// A message the protocol itself holds a reference to (a staged member,
    /// an inbox entry being acted on): its record cannot have retired.
    fn live_msg(&mut self, id: u64) -> &mut Msg {
        self.msg_mut(id).expect("live message lost its record")
    }

    /// Mint the next id of `src`'s send namespace for the record `slot`.
    fn mint(&mut self, src: Rank, slot: Sent) -> u64 {
        let id = src as u64 + self.ranks.len() as u64 * self.ranks[src].sent.next_seq();
        assert!(
            id <= MAX_MSG_ID,
            "message id space exhausted: wire tokens would alias"
        );
        self.ranks[src].sent.push(slot);
        id
    }

    /// Post a non-blocking send of `bytes` (optionally carrying a functional
    /// payload). Send-side work begins at `when`; the caller accounts the
    /// MPE call overhead.
    #[allow(clippy::too_many_arguments)]
    pub fn isend(
        &mut self,
        machine: &mut MachineCtx<'_>,
        src: Rank,
        dst: Rank,
        tag: Tag,
        bytes: u64,
        payload: Option<Vec<f64>>,
        when: SimTime,
    ) -> SendHandle {
        let n = self.ranks.len();
        assert!(src < n && dst < n, "rank out of range");
        assert_ne!(src, dst, "self-sends go through the data warehouse");
        assert!(
            tag < APP_TAG_LIMIT,
            "tag {tag:#x} lies in the reserved control-plane namespace (>= {APP_TAG_LIMIT:#x})"
        );
        // Eager/rendezvous crossover: an explicit comm-layer threshold
        // overrides the machine's default eager limit.
        let eager_limit = self
            .comm
            .eager_crossover
            .unwrap_or(machine.cfg().eager_limit_bytes as u64);
        let eager = bytes <= eager_limit;
        let endpoint = self.comm.route(src, dst, tag);
        let aggregate = eager && self.comm.aggregation();
        // Aggregation: the payload parks in a staging buffer. Eager: it
        // leaves immediately (possibly through the fault plane). Either
        // way the library buffers it, so the send request is complete at
        // post. Rendezvous: only the RTS leaves.
        let state = if aggregate {
            MsgState::Staged
        } else if eager {
            MsgState::DataInFlight
        } else {
            MsgState::RtsInFlight
        };
        let id = self.mint(
            src,
            Sent::Msg(Msg {
                src,
                dst,
                tag,
                bytes,
                payload,
                state,
                eager,
                endpoint,
                matched_recv: None,
                send_complete: eager,
                attempt: 0,
                deadline: None,
            }),
        );
        self.ranks[src].live_sends += 1;
        if eager {
            self.ranks[src].sends_completed += 1;
        }
        self.rec.record(
            src,
            when.0,
            Lane::Mpe,
            Event::MsgPosted {
                msg: id,
                peer: dst,
                tag,
                bytes,
                eager,
            },
        );
        if let Some(m) = self.rec.metrics() {
            m.messages_posted.inc();
            m.msg_bytes.record(bytes);
        }
        if aggregate {
            self.stage_push(machine, id, when);
        } else if eager {
            if self.inject_data(machine, id, when, false) {
                self.ranks[src].inbox.push(id);
            }
        } else {
            machine.net_send_ep(src, dst, CTRL_BYTES, when, encode(id, PH_RTS), endpoint);
            self.rec.record(
                src,
                when.0,
                Lane::Mpe,
                Event::RtsSent { msg: id, peer: dst },
            );
        }
        SendHandle(id)
    }

    /// Park an eager payload in its `(dst, endpoint)` staging buffer,
    /// flushing immediately if the byte threshold is crossed.
    fn stage_push(&mut self, machine: &mut MachineCtx<'_>, id: u64, when: SimTime) {
        let (src, dst, ep, bytes) = {
            let m = self.live_msg(id);
            (m.src, m.dst, m.endpoint, m.bytes)
        };
        let st = &mut self.ranks[src];
        let buf = st.stage.entry((dst, ep)).or_default();
        if buf.members.is_empty() {
            buf.opened_at = when;
        }
        buf.members.push(id);
        buf.bytes += bytes;
        st.staged += 1;
        let full = (buf.bytes >= self.comm.agg_bytes).then(|| std::mem::take(buf));
        self.rec.record(
            src,
            when.0,
            Lane::Mpe,
            Event::AggStaged {
                msg: id,
                peer: dst,
                endpoint: ep,
                bytes,
            },
        );
        if let Some(buf) = full {
            self.flush(machine, src, dst, ep, buf, when, "bytes");
        }
    }

    /// Send the contents of one staging buffer as a single coalesced wire
    /// packet. The batch id is minted from the sender's message-id
    /// namespace (only the sender's calls mint here, preserving the
    /// commuting-calls property).
    #[allow(clippy::too_many_arguments)]
    fn flush(
        &mut self,
        machine: &mut MachineCtx<'_>,
        src: Rank,
        dst: Rank,
        ep: EndpointId,
        buf: StageBuf,
        when: SimTime,
        reason: &'static str,
    ) {
        for &id in &buf.members {
            let m = self.live_msg(id);
            debug_assert_eq!(m.state, MsgState::Staged);
            m.state = MsgState::DataInFlight;
        }
        let msgs = buf.members.len();
        self.ranks[src].staged -= msgs;
        let batch = self.mint(src, Sent::Batch(buf.members));
        // The coalesced packet occupies at least a control packet — the
        // same floor as a lone eager payload, so the static lookahead
        // proof's per-channel minimum still holds.
        let wire_bytes = buf.bytes.max(CTRL_BYTES);
        machine.net_send_ep(src, dst, wire_bytes, when, encode(batch, PH_DATA), ep);
        self.rec.record(
            src,
            when.0,
            Lane::Mpe,
            Event::AggFlushed {
                batch,
                peer: dst,
                endpoint: ep,
                msgs: msgs as u64,
                bytes: buf.bytes,
                reason,
            },
        );
    }

    /// Messages currently parked in `rank`'s staging buffers. The
    /// scheduler must not end a step while this is non-zero.
    pub fn staged(&self, rank: Rank) -> usize {
        self.ranks[rank].staged
    }

    /// The earliest deadline flush among `rank`'s staging buffers — the
    /// scheduler arranges an MPE wakeup for it so the flush path runs even
    /// when no other event would wake the rank.
    pub fn next_flush_at(&self, rank: Rank) -> Option<SimTime> {
        let st = &self.ranks[rank];
        if st.staged == 0 {
            return None;
        }
        st.stage
            .values()
            .filter(|b| !b.members.is_empty())
            .map(|b| b.opened_at + SimDur(self.comm.agg_deadline_ps))
            .min()
    }

    /// Put a message's payload on the wire (eager post, rendezvous grant,
    /// or resend), consulting the fault plan for this transmission attempt.
    /// With `forced` the fault consult is bypassed — the last-resort
    /// delivery after the retry budget is exhausted. Returns whether the
    /// fault plane dropped the payload: the caller then keeps the message
    /// in the sender's inbox, where its resend deadline is watched.
    fn inject_data(
        &mut self,
        machine: &mut MachineCtx<'_>,
        id: u64,
        when: SimTime,
        forced: bool,
    ) -> bool {
        let (src, dst, bytes, tag, eager, attempt, ep) = {
            let m = self.live_msg(id);
            (m.src, m.dst, m.bytes, m.tag, m.eager, m.attempt, m.endpoint)
        };
        // Eager messages occupy at least a control packet on the wire.
        let wire_bytes = if eager { bytes.max(CTRL_BYTES) } else { bytes };
        let token = encode(id, PH_DATA);
        let fault = self.faults.clone().filter(|_| !forced).and_then(|plan| {
            let key = MsgKey {
                src: src as u32,
                dst: dst as u32,
                tag,
                attempt,
            };
            plan.msg_fault(&key).map(|fault| (plan, fault))
        });
        let m = self.live_msg(id);
        m.state = MsgState::DataInFlight;
        m.deadline = None;
        let Some((plan, fault)) = fault else {
            machine.net_send_ep(src, dst, wire_bytes, when, token, ep);
            return false;
        };
        let (stat, kind) = match fault {
            MsgFault::Drop => {
                // Nothing reaches the wire. Arm the sender's resend timer.
                m.state = MsgState::DataLost;
                m.deadline = Some(when + SimDur(plan.msg_timeout_ps()));
                (&plan.stats.injected_msg_drop, "msg_drop")
            }
            MsgFault::Duplicate => {
                machine.net_send_ep(src, dst, wire_bytes, when, token, ep);
                machine.net_send_ep(src, dst, wire_bytes, when, token, ep);
                (&plan.stats.injected_msg_dup, "msg_dup")
            }
            MsgFault::Delay { extra_ps } => {
                let late = when + SimDur(extra_ps);
                machine.net_send_ep(src, dst, wire_bytes, late, token, ep);
                (&plan.stats.injected_msg_delay, "msg_delay")
            }
        };
        FaultStats::bump(stat);
        self.rec
            .record(src, when.0, Lane::Mpe, Event::FaultInjected { kind, id });
        fault == MsgFault::Drop
    }

    /// Retire a message entirely (reliable mode: its ack landed; clean
    /// run: the receiver consumed it). Late wire deliveries for it are
    /// suppressed via the minted-id watermark ([`MpiWorld::was_minted`]) —
    /// no retired-id set to grow without bound on long campaigns.
    fn retire_msg(&mut self, id: u64) {
        let (src, seq) = self.split(id);
        if self.ranks[src].sent.free(seq).is_some() {
            self.ranks[src].live_sends -= 1;
        }
    }

    /// Whether `id` was ever minted by `isend` (or a batch flush): ids are
    /// drawn as `src + n * seq`, so the per-source sequence counters are a
    /// complete O(1) record of every id handed out — an unknown-but-minted
    /// id on the wire can only be a late duplicate of a retired message.
    fn was_minted(&self, id: u64) -> bool {
        let (src, seq) = self.split(id);
        seq < self.ranks[src].sent.next_seq()
    }

    /// Post a non-blocking receive for a message from `src` with `tag`.
    pub fn irecv(&mut self, rank: Rank, src: Rank, tag: Tag) -> RecvHandle {
        let n = self.ranks.len();
        assert!(rank < n && src < n, "rank out of range");
        assert!(
            tag < APP_TAG_LIMIT,
            "tag {tag:#x} lies in the reserved control-plane namespace (>= {APP_TAG_LIMIT:#x})"
        );
        let st = &mut self.ranks[rank];
        let seq = st.recvs.push(RecvReq {
            complete: false,
            payload: None,
        });
        let id = rank as u64 + n as u64 * seq;
        st.posted.insert((src, tag, id));
        RecvHandle(id)
    }

    /// Record a wire delivery (called by the controller when a
    /// `MachineEvent::NetDeliver` with this token pops). The delivery is not
    /// yet *visible* to either rank — visibility requires `progress` — but
    /// it is queued on the inbox of the rank that must act on it: the rank
    /// the packet was addressed to, i.e. the one whose shard popped the
    /// event.
    pub fn on_wire(&mut self, token: u64) {
        let (id, phase) = decode(token);
        let (src, seq) = self.split(id);
        if phase == PH_DATA && matches!(self.ranks[src].sent.get(seq), Some(Sent::Batch(_))) {
            // A coalesced packet landed: every member becomes visible in
            // push order (ascending id per source, so FIFO matching order
            // is exactly the senders' program order).
            let Some(Sent::Batch(members)) = self.ranks[src].sent.free(seq) else {
                unreachable!("slot checked above");
            };
            for &m in &members {
                let msg = self.live_msg(m);
                debug_assert_eq!(msg.state, MsgState::DataInFlight);
                msg.state = MsgState::DataArrived;
                let dst = msg.dst;
                self.ranks[dst].inbox.push(m);
            }
            return;
        }
        let reliable = self.faults.is_some();
        let Some(msg) = self.msg_mut(id) else {
            // Reliable mode: a late duplicate (or redundant resend) of a
            // message whose ack already landed is part of the protocol —
            // suppressed exactly like a live duplicate.
            assert!(
                reliable && self.was_minted(id),
                "wire token for unknown message {id}"
            );
            if phase == PH_DATA {
                self.bump_suppressed();
            }
            return;
        };
        let (src, dst) = (msg.src, msg.dst);
        match (phase, msg.state) {
            (PH_RTS, MsgState::RtsInFlight) => {
                msg.state = MsgState::RtsArrived;
                self.ranks[dst].inbox.push(id);
            }
            (PH_CTS, MsgState::CtsInFlight) => {
                msg.state = MsgState::CtsArrived;
                self.ranks[src].inbox.push(id);
            }
            (PH_DATA, MsgState::DataInFlight) => {
                msg.state = MsgState::DataArrived;
                self.ranks[dst].inbox.push(id);
            }
            (PH_DATA, MsgState::DataLost) if reliable => {
                // A stale copy landing after the sender already declared
                // the attempt lost: delivery is delivery. (The sender's
                // inbox entry goes stale and is dropped on its next look.)
                msg.state = MsgState::DataArrived;
                self.ranks[dst].inbox.push(id);
            }
            (PH_DATA, MsgState::DataArrived | MsgState::AckWait) if reliable => {
                // Duplicate delivery: the payload is already here (or even
                // consumed). Suppress; the receive side must see each
                // message exactly once.
                self.bump_suppressed();
            }
            (PH_ACK, MsgState::AckWait) if reliable => {
                // Ack landed at the sender's NIC: the message is done.
                self.retire_msg(id);
            }
            (p, s) => panic!("message {id}: phase {p} delivery in state {s:?}"),
        }
    }

    fn bump_suppressed(&self) {
        let plan = self.faults.as_ref().expect("suppression without a plan");
        FaultStats::bump(&plan.stats.duplicates_suppressed);
    }

    /// Drive the MPI library on `rank` at `now`: match arrived messages to
    /// posted receives, answer rendezvous handshakes, inject granted
    /// payloads, and complete requests. Returns the number of protocol
    /// actions taken (0 means nothing changed). The caller accounts the MPE
    /// call cost.
    pub fn progress(&mut self, rank: Rank, machine: &mut MachineCtx<'_>, now: SimTime) -> usize {
        self.progress_on(rank, machine, now, Lane::Mpe)
    }

    /// [`MpiWorld::progress`] with an explicit telemetry lane: the
    /// dedicated-progress-lane machine variant drives the protocol at wire
    /// delivery time on [`Lane::Progress`] instead of from the MPE, so the
    /// actions it takes are attributed to their own track.
    pub fn progress_on(
        &mut self,
        rank: Rank,
        machine: &mut MachineCtx<'_>,
        now: SimTime,
        lane: Lane,
    ) -> usize {
        let mut actions = 0;
        // Deadline-triggered aggregation flushes for this rank's staging
        // buffers: the byte threshold flushes at push, everything else
        // ages out here, in ascending (dst, endpoint) order.
        if self.ranks[rank].staged > 0 {
            let deadline = SimDur(self.comm.agg_deadline_ps);
            let mut stage = std::mem::take(&mut self.ranks[rank].stage);
            for (&(dst, ep), buf) in &mut stage {
                if !buf.members.is_empty() && buf.opened_at + deadline <= now {
                    self.flush(machine, rank, dst, ep, std::mem::take(buf), now, "deadline");
                    actions += 1;
                }
            }
            self.ranks[rank].stage = stage;
        }
        // The inbox holds every message this rank can act on. Ascending
        // message id gives MPI-FIFO matching per source, and fixes the NIC
        // injection and trace order of everything this call emits.
        let mut inbox = std::mem::take(&mut self.ranks[rank].inbox);
        inbox.sort_unstable();
        let mut kept = 0;
        for i in 0..inbox.len() {
            let id = inbox[i];
            let (acted, keep) = self.act_on(rank, id, machine, now, lane);
            actions += usize::from(acted);
            if keep {
                inbox[kept] = id;
                kept += 1;
            }
        }
        inbox.truncate(kept);
        debug_assert!(self.ranks[rank].inbox.is_empty());
        self.ranks[rank].inbox = inbox;
        self.rec.record(
            rank,
            now.0,
            lane,
            Event::ProgressCall {
                actions: actions as u64,
            },
        );
        if let Some(m) = self.rec.metrics() {
            m.progress_calls.inc();
        }
        actions
    }

    /// Let `rank` act on one inbox entry. Returns `(acted, keep)`: whether
    /// a protocol action was taken, and whether the entry stays queued (an
    /// arrival still unmatched, a lost payload still waiting for — or
    /// re-armed with — a resend deadline).
    fn act_on(
        &mut self,
        rank: Rank,
        id: u64,
        machine: &mut MachineCtx<'_>,
        now: SimTime,
        lane: Lane,
    ) -> (bool, bool) {
        let Some(m) = self.msg(id) else {
            return (false, false);
        };
        let (src, dst, tag, ep) = (m.src, m.dst, m.tag, m.endpoint);
        let (state, matched, deadline) = (m.state, m.matched_recv, m.deadline);
        match state {
            MsgState::RtsArrived if dst == rank => {
                // Match (or use an existing match) and grant the send.
                let Some(r) = matched.or_else(|| self.match_recv(dst, src, tag)) else {
                    return (false, true);
                };
                let m = self.live_msg(id);
                m.matched_recv = Some(r);
                m.state = MsgState::CtsInFlight;
                machine.net_send_ep(dst, src, CTRL_BYTES, now, encode(id, PH_CTS), ep);
                self.rec
                    .record(dst, now.0, lane, Event::CtsSent { msg: id, peer: src });
                (true, false)
            }
            MsgState::CtsArrived if src == rank => {
                // Rendezvous grant: payload through the fault plane. The
                // send buffer is released once injected (a dropped
                // injection still buffers for resend).
                let lost = self.inject_data(machine, id, now, false);
                self.live_msg(id).send_complete = true;
                self.ranks[src].sends_completed += 1;
                (true, lost)
            }
            MsgState::DataLost if src == rank => {
                // Reliable mode: once the sender's ack deadline expires,
                // detect and resend with exponential backoff, or force
                // delivery once the retry budget is spent.
                if now < deadline.expect("lost msg without deadline") {
                    return (false, true);
                }
                let plan = Arc::clone(self.faults.as_ref().expect("lost msg without a plan"));
                FaultStats::bump(&plan.stats.detected_msg);
                self.rec.record(
                    src,
                    now.0,
                    lane,
                    Event::FaultDetected {
                        kind: "msg_timeout",
                        id,
                    },
                );
                let m = self.live_msg(id);
                m.attempt += 1;
                let attempt = m.attempt;
                let lost = if attempt >= plan.max_attempts() {
                    // Retry budget exhausted: the recoverable path failed.
                    // Degrade gracefully — force the payload through,
                    // bypassing the fault consult, and account the fault
                    // as unrecovered.
                    FaultStats::bump(&plan.stats.unrecovered);
                    self.inject_data(machine, id, now, true)
                } else {
                    FaultStats::bump(&plan.stats.resends_msg);
                    let when = now + SimDur(plan.backoff_ps(attempt));
                    self.inject_data(machine, id, when, false)
                };
                (true, lost)
            }
            MsgState::DataArrived if dst == rank => {
                let Some(r) = matched.or_else(|| self.match_recv(dst, src, tag)) else {
                    return (false, true);
                };
                let m = self.live_msg(id);
                debug_assert!(m.eager || m.send_complete);
                m.matched_recv = Some(r);
                let (payload, bytes, attempt) = (m.payload.take(), m.bytes, m.attempt);
                let n = self.ranks.len() as u64;
                let st = &mut self.ranks[dst];
                let req = st.recvs.get_mut(r / n).expect("matched receive vanished");
                req.complete = true;
                req.payload = payload;
                st.recv_cq.push_back(r);
                self.recvs_completed += 1;
                self.rec.record(
                    dst,
                    now.0,
                    lane,
                    Event::MsgDelivered {
                        msg: id,
                        peer: src,
                        tag,
                        bytes,
                    },
                );
                if let Some(plan) = self.faults.as_ref() {
                    // Reliable mode: acknowledge; the message stays live
                    // (suppressing duplicates) until the ack lands at the
                    // sender.
                    if attempt > 0 {
                        FaultStats::bump(&plan.stats.recovered_msg);
                        self.rec.record(
                            dst,
                            now.0,
                            lane,
                            Event::FaultRecovered {
                                kind: "msg_resend",
                                id,
                            },
                        );
                    }
                    self.live_msg(id).state = MsgState::AckWait;
                    machine.net_send_ep(dst, src, CTRL_BYTES, now, encode(id, PH_ACK), ep);
                } else {
                    // Fully finished (the eager/rendezvous send side is
                    // complete by now): reclaim the record.
                    self.retire_msg(id);
                }
                (true, false)
            }
            // A stale entry: the message moved on without this rank (a
            // lost payload whose late copy arrived after all).
            _ => (false, false),
        }
    }

    /// Claim the oldest unmatched posted receive on `rank` for `(src, tag)`.
    fn match_recv(&mut self, rank: Rank, src: Rank, tag: Tag) -> Option<u64> {
        let posted = &mut self.ranks[rank].posted;
        let &key = posted.range((src, tag, 0)..=(src, tag, u64::MAX)).next()?;
        posted.remove(&key);
        Some(key.2)
    }

    /// One entry into the library on `rank` at `now` (the MPE's "test
    /// posted sends and receives", §V-C step 3c): [`MpiWorld::progress`],
    /// then every receive completed since the previous entry is appended to
    /// `recvs` with its payload — in completion order; sort by handle for
    /// post order — and released as by [`MpiWorld::retire_recv`]. The
    /// caller accounts the MPE call cost.
    pub fn test(
        &mut self,
        rank: Rank,
        machine: &mut MachineCtx<'_>,
        now: SimTime,
        recvs: &mut Vec<(RecvHandle, Option<Vec<f64>>)>,
    ) -> Tested {
        let actions = self.progress(rank, machine, now);
        let n = self.ranks.len() as u64;
        let st = &mut self.ranks[rank];
        while let Some(id) = st.recv_cq.pop_front() {
            // A handle its owner already consumed by polling left a stale
            // entry behind.
            if let Some(req) = st.recvs.free(id / n) {
                recvs.push((RecvHandle(id), req.payload));
            }
        }
        Tested {
            actions,
            sends_completed: std::mem::take(&mut st.sends_completed),
            unacked: st.live_sends,
            staged: st.staged,
            next_deadline: self.next_deadline(rank),
            next_flush_at: self.next_flush_at(rank),
        }
    }

    /// Whether `rank` must keep entering the library although every request
    /// it holds has completed: the reliable layer's resend timers and the
    /// aggregation deadline flush both live inside `progress`, so a rank
    /// with un-acked sends under a fault plan, or with staged payloads,
    /// still owes the library its host time.
    pub fn owes_entry(&self, rank: Rank) -> bool {
        let st = &self.ranks[rank];
        st.staged > 0 || (self.faults.is_some() && st.live_sends > 0)
    }

    /// Has this send's buffer been handed to the network? (Observable only
    /// after a `progress` call on the sending rank, as in real MPI `Test`.)
    pub fn send_done(&self, h: SendHandle) -> bool {
        self.msg(h.0).is_none_or(|m| m.send_complete)
    }

    fn recv(&self, h: RecvHandle) -> Option<&RecvReq> {
        let (rank, seq) = self.split(h.0);
        self.ranks[rank].recvs.get(seq)
    }

    /// Has this receive completed? A handle that was already consumed
    /// reports `true` — only completed receives ever leave the store.
    pub fn recv_done(&self, h: RecvHandle) -> bool {
        self.recv(h).is_none_or(|r| r.complete)
    }

    /// Release a completed receive's record, and with it any completion-
    /// queue entries at the front that polling made stale (so a caller who
    /// only ever polls handles, in completion order, leaves nothing behind).
    fn free_recv(&mut self, h: RecvHandle) -> Option<RecvReq> {
        let (rank, seq) = self.split(h.0);
        let n = self.ranks.len() as u64;
        let st = &mut self.ranks[rank];
        let req = st.recvs.free(seq);
        while st
            .recv_cq
            .front()
            .is_some_and(|&id| st.recvs.get(id / n).is_none())
        {
            st.recv_cq.pop_front();
        }
        req
    }

    /// Take the functional payload of a completed receive, releasing the
    /// handle (a second take returns `None`).
    ///
    /// # Panics
    /// Panics if the receive has not completed, or was never posted.
    pub fn take_payload(&mut self, h: RecvHandle) -> Option<Vec<f64>> {
        match self.recv(h) {
            Some(r) => assert!(r.complete, "take_payload before completion"),
            None => {
                let (rank, seq) = self.split(h.0);
                assert!(seq < self.ranks[rank].recvs.next_seq(), "unknown recv");
            }
        }
        self.free_recv(h)?.payload
    }

    /// Whether an unmatched message from `src` with `tag` is waiting at
    /// `rank` (MPI `Iprobe` shape): its payload has arrived (eager) or its
    /// RTS has (rendezvous), but no posted receive has claimed it.
    ///
    /// Agreement contract with `take_payload`/`retire_recv`: a probe hit is
    /// a message an `irecv` + `progress` on this rank will deliver, take,
    /// and retire — the scan covers the rank's inbox only, which a claimed
    /// or suppressed-duplicate arrival is never (re-)queued on, so a
    /// retired message can never probe positive off stale bookkeeping.
    pub fn iprobe(&self, rank: Rank, src: Rank, tag: Tag) -> bool {
        self.ranks[rank].inbox.iter().any(|&id| {
            self.msg(id).is_some_and(|m| {
                m.dst == rank
                    && m.src == src
                    && m.tag == tag
                    && m.matched_recv.is_none()
                    && matches!(m.state, MsgState::RtsArrived | MsgState::DataArrived)
            })
        })
    }

    /// Sends from `rank` that are still live: not yet consumed by their
    /// receiver or, in reliable mode, not yet acknowledged (including
    /// dropped payloads awaiting resend). Under a fault plan a rank must
    /// not end its step while this is non-zero, or a lost payload could
    /// strand its receiver forever.
    pub fn unacked(&self, rank: Rank) -> usize {
        self.ranks[rank].live_sends
    }

    /// Reliable mode: the earliest resend deadline among `rank`'s lost
    /// payloads — the scheduler arranges an MPE wakeup timer for it so the
    /// detection path runs even when no other event would wake the rank.
    pub fn next_deadline(&self, rank: Rank) -> Option<SimTime> {
        self.faults.as_ref()?;
        self.ranks[rank]
            .inbox
            .iter()
            .filter_map(|&id| {
                let m = self.msg(id)?;
                (m.src == rank && m.state == MsgState::DataLost)
                    .then_some(m.deadline)
                    .flatten()
            })
            .min()
    }

    /// Free the bookkeeping of a completed receive (after the payload has
    /// been consumed). A handle already released is a no-op.
    pub fn retire_recv(&mut self, h: RecvHandle) {
        if let Some(r) = self.recv(h) {
            assert!(r.complete, "retiring an incomplete receive");
            self.free_recv(h);
        }
    }

    /// True when no message is still in flight, staged, or awaiting
    /// consumption (quiescence check between timesteps). Fully finished
    /// messages are retired at once, so this checks that no sender has a
    /// live record (staged and batched members are live records).
    pub fn quiescent(&self) -> bool {
        self.ranks.iter().all(|st| st.live_sends == 0)
    }

    /// Outstanding handles at the end of a run, by `(rank, tag)`: one entry
    /// per live message (attributed to the *sending* rank) and one per
    /// posted-but-never-matched receive (attributed to the receiving rank).
    /// A clean run returns an empty vector; anything else is a leak the
    /// controller surfaces in `RunReport` instead of letting it vanish
    /// silently.
    pub fn leaked(&self) -> Vec<(Rank, Tag)> {
        let mut out = Vec::new();
        for (rank, st) in self.ranks.iter().enumerate() {
            out.extend(st.sent.iter().filter_map(|s| match s {
                Sent::Msg(m) => Some((m.src, m.tag)),
                Sent::Batch(_) => None,
            }));
            out.extend(st.posted.iter().map(|&(_, tag, _)| (rank, tag)));
        }
        out.sort_unstable();
        out
    }

    /// Drop completion-queue entries whose receive was already consumed
    /// through its handle. Message and receive records reclaim themselves
    /// the moment they finish, and [`MpiWorld::test`] empties the queue, so
    /// this is all a caller that polls handles out of completion order and
    /// never calls `test` can leave behind.
    pub fn compact(&mut self) {
        let n = self.ranks.len() as u64;
        for st in &mut self.ranks {
            let RankState { recv_cq, recvs, .. } = st;
            recv_cq.retain(|&id| recvs.get(id / n).is_some());
        }
    }
}

/// A [`MpiWorld`] shared by concurrently advancing rank shards.
///
/// The world sits behind a mutex; every method locks for the duration of
/// exactly one library call. Determinism under the PDES window protocol is
/// **not** provided by the lock (lock acquisition order varies run to run)
/// — it comes from the calls of different ranks *commuting* within one
/// lookahead window:
///
/// * message and receive ids are minted from per-rank namespaces, so the
///   ids a rank draws never depend on other ranks' call timing;
/// * each message's state is only ever touched by one side per window (the
///   other side cannot observe the transition until the barrier merge
///   delivers the corresponding wire event);
/// * work is queued on the rank that performs it, by that rank: `on_wire`
///   runs on the shard that popped the `NetDeliver`, which is the rank the
///   packet was addressed to and the rank whose inbox it pushes, and a
///   lost payload is queued by its sender's own call. Inboxes, completion
///   queues, posted-receive sets and staging buffers are therefore
///   rank-local: only their owner's calls read or write them;
/// * matching is FIFO per `(dst, src, tag)` and driven solely by the
///   destination rank;
/// * a receiver retiring a consumed message empties one slot of the
///   *sender's* store and decrements its live count — neither moves the
///   sender's next sequence number (front-popping keeps `base + len`), the
///   sender reads the count only under a fault plan, where acks retire
///   messages on the sender's own shard, and the emptied slot is
///   unobservable (`send_done` already reported it complete);
/// * the shared counters (`recvs_completed`, fault stats) are pure
///   accumulators.
///
/// Any interleaving of different ranks' calls therefore produces the same
/// world state at the window barrier, which is what makes the PDES engine
/// bit-identical to the serial one.
///
/// The wrappers are exactly the calls the scheduler (`isend`, `irecv`,
/// `owes_entry`, `test`) and the controller (`on_wire`, `progress_on`,
/// `quiescent`, `leaked`) make; configure the [`MpiWorld`] before wrapping
/// it.
pub struct SharedMpi {
    inner: std::sync::Mutex<MpiWorld>,
}

impl SharedMpi {
    /// Wrap a world for shared access.
    pub fn new(world: MpiWorld) -> Self {
        SharedMpi {
            inner: std::sync::Mutex::new(world),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MpiWorld> {
        self.inner.lock().expect("MpiWorld mutex poisoned")
    }

    /// See [`MpiWorld::isend`].
    #[allow(clippy::too_many_arguments)]
    pub fn isend(
        &self,
        machine: &mut MachineCtx<'_>,
        src: Rank,
        dst: Rank,
        tag: Tag,
        bytes: u64,
        payload: Option<Vec<f64>>,
        when: SimTime,
    ) -> SendHandle {
        self.lock()
            .isend(machine, src, dst, tag, bytes, payload, when)
    }

    /// See [`MpiWorld::irecv`].
    pub fn irecv(&self, rank: Rank, src: Rank, tag: Tag) -> RecvHandle {
        self.lock().irecv(rank, src, tag)
    }

    /// See [`MpiWorld::on_wire`].
    pub fn on_wire(&self, token: u64) {
        self.lock().on_wire(token);
    }

    /// See [`MpiWorld::progress_on`].
    pub fn progress_on(
        &self,
        rank: Rank,
        machine: &mut MachineCtx<'_>,
        now: SimTime,
        lane: Lane,
    ) -> usize {
        self.lock().progress_on(rank, machine, now, lane)
    }

    /// See [`MpiWorld::owes_entry`].
    pub fn owes_entry(&self, rank: Rank) -> bool {
        self.lock().owes_entry(rank)
    }

    /// See [`MpiWorld::test`].
    pub fn test(
        &self,
        rank: Rank,
        machine: &mut MachineCtx<'_>,
        now: SimTime,
        recvs: &mut Vec<(RecvHandle, Option<Vec<f64>>)>,
    ) -> Tested {
        self.lock().test(rank, machine, now, recvs)
    }

    /// See [`MpiWorld::quiescent`].
    pub fn quiescent(&self) -> bool {
        self.lock().quiescent()
    }

    /// See [`MpiWorld::leaked`].
    pub fn leaked(&self) -> Vec<(Rank, Tag)> {
        self.lock().leaked()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::{Machine, MachineConfig, MachineEvent};

    fn setup(n: usize) -> (Machine, MpiWorld) {
        (Machine::new(MachineConfig::sw26010(), n), MpiWorld::new(n))
    }

    /// Drain all machine events into the world.
    fn drain(m: &mut Machine, w: &mut MpiWorld) {
        while let Some((_, ev)) = m.pop() {
            if let MachineEvent::NetDeliver { token, .. } = ev {
                w.on_wire(token);
            }
        }
    }

    #[test]
    fn eager_send_completes_immediately_recv_needs_progress() {
        let (mut m, mut w) = setup(2);
        let s = w.isend(&mut m.ctx(0), 0, 1, 7, 100, None, SimTime::ZERO);
        assert!(w.send_done(s), "eager sends buffer and complete");
        let r = w.irecv(1, 0, 7);
        assert!(!w.recv_done(r));
        drain(&mut m, &mut w);
        // Arrived, but invisible until rank 1 progresses.
        assert!(!w.recv_done(r));
        let now = m.now();
        assert!(w.progress(1, &mut m.ctx(1), now) > 0);
        assert!(w.recv_done(r));
        assert!(w.quiescent());
    }

    #[test]
    fn rendezvous_requires_both_hosts_to_progress() {
        let (mut m, mut w) = setup(2);
        let bytes = 1_000_000; // > eager limit
        let s = w.isend(&mut m.ctx(0), 0, 1, 3, bytes, None, SimTime::ZERO);
        let r = w.irecv(1, 0, 3);
        assert!(!w.send_done(s), "rendezvous sends are not complete at post");

        // RTS arrives; receiver progress sends CTS.
        drain(&mut m, &mut w);
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 1);
        assert!(!w.send_done(s));
        assert!(!w.recv_done(r));

        // CTS arrives; *sender* progress injects the payload.
        drain(&mut m, &mut w);
        let t = m.now();
        assert_eq!(w.progress(0, &mut m.ctx(0), t), 1);
        assert!(w.send_done(s), "payload injected, buffer released");

        // Payload arrives; receiver progress completes the receive.
        drain(&mut m, &mut w);
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 1);
        assert!(w.recv_done(r));
        assert!(w.quiescent());
    }

    #[test]
    fn rendezvous_stalls_without_posted_recv() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(0), 0, 1, 3, 1_000_000, None, SimTime::ZERO);
        drain(&mut m, &mut w);
        // Receiver progresses but has no matching irecv: nothing happens.
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 0);
        // Posting the receive unblocks the handshake.
        let r = w.irecv(1, 0, 3);
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 1);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(0, &mut m.ctx(0), t);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r));
    }

    #[test]
    fn payload_travels_functionally() {
        let (mut m, mut w) = setup(2);
        let data = vec![1.5, 2.5, 3.5];
        w.isend(
            &mut m.ctx(0),
            0,
            1,
            9,
            24,
            Some(data.clone()),
            SimTime::ZERO,
        );
        let r = w.irecv(1, 0, 9);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r));
        assert_eq!(w.take_payload(r), Some(data));
    }

    #[test]
    fn matching_is_fifo_per_source_and_tag() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(0), 0, 1, 5, 8, Some(vec![1.0]), SimTime::ZERO);
        w.isend(&mut m.ctx(0), 0, 1, 5, 8, Some(vec![2.0]), SimTime::ZERO);
        let r1 = w.irecv(1, 0, 5);
        let r2 = w.irecv(1, 0, 5);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r1) && w.recv_done(r2));
        // First posted receive gets the first sent message.
        assert_eq!(w.take_payload(r1), Some(vec![1.0]));
        assert_eq!(w.take_payload(r2), Some(vec![2.0]));
    }

    #[test]
    fn tags_separate_message_streams() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(0), 0, 1, 100, 8, Some(vec![1.0]), SimTime::ZERO);
        w.isend(&mut m.ctx(0), 0, 1, 200, 8, Some(vec![2.0]), SimTime::ZERO);
        let r200 = w.irecv(1, 0, 200);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r200));
        assert_eq!(w.take_payload(r200), Some(vec![2.0]));
        assert!(!w.quiescent(), "tag-100 message still unconsumed");
        let r100 = w.irecv(1, 0, 100);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r100));
        assert!(w.quiescent());
    }

    /// Slots the dense stores hold (live or not yet reclaimed) and
    /// completion-queue entries, summed over ranks.
    fn held(w: &MpiWorld) -> (usize, usize, usize) {
        let sum = |f: fn(&RankState) -> usize| w.ranks.iter().map(f).sum();
        (
            sum(|st| st.sent.slots.len()),
            sum(|st| st.recvs.slots.len()),
            sum(|st| st.recv_cq.len()),
        )
    }

    #[test]
    fn finished_traffic_reclaims_itself() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(0), 0, 1, 1, 8, None, SimTime::ZERO);
        let r = w.irecv(1, 0, 1);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r));
        // Completed but not yet consumed: the handle (and its completion-
        // queue entry) must survive so a pending take_payload stays valid.
        w.compact();
        assert_eq!(held(&w), (0, 1, 1), "the consumed message is gone already");
        assert_eq!(w.take_payload(r), None, "model-mode message: no payload");
        assert_eq!(
            held(&w),
            (0, 0, 0),
            "taking the payload released the handle"
        );
        assert_eq!(w.recvs_completed, 1);
        assert!(w.recv_done(r), "a released handle still reports done");
        assert_eq!(w.take_payload(r), None, "a second take finds nothing");
        w.retire_recv(r);
    }

    #[test]
    fn compact_drops_completions_consumed_out_of_order() {
        let (mut m, mut w) = setup(2);
        let handles: Vec<_> = (0..3u64)
            .map(|tag| {
                w.isend(&mut m.ctx(0), 0, 1, tag, 8, None, SimTime::ZERO);
                w.irecv(1, 0, tag)
            })
            .collect();
        drain(&mut m, &mut w);
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 3);
        // Polled newest-first: the queue's front entry is still live, so
        // the two stale ones behind it linger until compaction.
        w.retire_recv(handles[2]);
        w.retire_recv(handles[1]);
        assert_eq!(
            held(&w),
            (0, 3, 3),
            "the live front pins the span behind it"
        );
        w.compact();
        assert_eq!(held(&w), (0, 3, 1));
        // The surviving completion is still delivered by `test`.
        let mut done = Vec::new();
        let tested = w.test(1, &mut m.ctx(1), t, &mut done);
        assert_eq!((tested.actions, tested.sends_completed), (0, 0));
        assert_eq!(done, vec![(handles[0], None)]);
        assert_eq!(held(&w), (0, 0, 0));
    }

    #[test]
    fn iprobe_tracks_unmatched_arrivals() {
        let (mut m, mut w) = setup(2);
        let s = w.isend(&mut m.ctx(0), 0, 1, 5, 64, None, SimTime::ZERO);
        assert_eq!(w.unacked(0), 1);
        assert!(!w.iprobe(1, 0, 5), "not arrived yet");
        drain(&mut m, &mut w);
        assert!(w.iprobe(1, 0, 5), "arrived, unmatched");
        assert!(!w.iprobe(1, 0, 6), "wrong tag");
        assert!(!w.iprobe(0, 1, 5), "wrong direction");
        // Unmatched arrivals wait in the inbox across progress calls.
        let now = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), now), 0);
        assert!(w.iprobe(1, 0, 5), "still unexpected");
        let r = w.irecv(1, 0, 5);
        w.progress(1, &mut m.ctx(1), now);
        assert!(w.recv_done(r));
        assert!(!w.iprobe(1, 0, 5), "consumed");
        assert_eq!(w.unacked(0), 0);
        assert!(w.send_done(s));
    }

    #[test]
    fn arrivals_for_one_rank_never_make_another_act() {
        // Rank 1 is the destination of an eager payload and of a
        // rendezvous RTS; ranks 0 (their sender) and 2 (a bystander with
        // its own posted receive) must see nothing to do.
        let (mut m, mut w) = setup(3);
        w.isend(&mut m.ctx(0), 0, 1, 1, 64, None, SimTime::ZERO);
        w.isend(&mut m.ctx(0), 0, 1, 2, 1_000_000, None, SimTime::ZERO);
        w.irecv(1, 0, 1);
        w.irecv(1, 0, 2);
        w.irecv(2, 0, 1);
        drain(&mut m, &mut w);
        let now = m.now();
        for bystander in [0, 2] {
            assert_eq!(w.progress(bystander, &mut m.ctx(bystander), now), 0);
        }
        assert_eq!(w.progress(1, &mut m.ctx(1), now), 2, "match + CTS");
        // The CTS is rank 0's to act on, and only rank 0's.
        drain(&mut m, &mut w);
        let now = m.now();
        for bystander in [1, 2] {
            assert_eq!(w.progress(bystander, &mut m.ctx(bystander), now), 0);
        }
        assert_eq!(w.progress(0, &mut m.ctx(0), now), 1, "payload injected");
    }

    #[test]
    fn test_drains_completions_and_reports_what_the_library_holds() {
        let (mut m, mut w) = setup(2);
        let mut done = Vec::new();
        // Two eager sends complete at post and are reported by the
        // sender's next entry; the rendezvous one only after its grant.
        w.isend(&mut m.ctx(0), 0, 1, 1, 8, Some(vec![1.0]), SimTime::ZERO);
        w.isend(&mut m.ctx(0), 0, 1, 2, 8, Some(vec![2.0]), SimTime::ZERO);
        w.isend(&mut m.ctx(0), 0, 1, 3, 1_000_000, None, SimTime::ZERO);
        let r2 = w.irecv(1, 0, 2);
        let r1 = w.irecv(1, 0, 1);
        let r3 = w.irecv(1, 0, 3);
        let tested = w.test(0, &mut m.ctx(0), SimTime::ZERO, &mut done);
        assert_eq!((tested.actions, tested.sends_completed), (0, 2));
        assert_eq!(tested.unacked, 3);
        assert!(
            !w.owes_entry(0),
            "clean run: nothing but requests to wait on"
        );
        drain(&mut m, &mut w);
        let now = m.now();
        let tested = w.test(1, &mut m.ctx(1), now, &mut done);
        assert_eq!(tested.actions, 3, "two deliveries and a CTS");
        // Completion order is message order; post order is handle order.
        assert_eq!(
            done,
            vec![(r1, Some(vec![1.0])), (r2, Some(vec![2.0]))],
            "drained in completion order, payloads attached"
        );
        done.sort_unstable_by_key(|&(h, _)| h);
        assert_eq!(done[0].0, r2, "sorting by handle recovers post order");
        assert!(w.recv_done(r1) && !w.recv_done(r3));
        assert_eq!(w.take_payload(r1), None, "test released the handle");
        done.clear();
        // Grant, payload, completion.
        drain(&mut m, &mut w);
        let now = m.now();
        let tested = w.test(0, &mut m.ctx(0), now, &mut done);
        assert_eq!((tested.actions, tested.sends_completed), (1, 1));
        drain(&mut m, &mut w);
        let now = m.now();
        w.test(1, &mut m.ctx(1), now, &mut done);
        assert_eq!(done, vec![(r3, None)]);
        assert!(w.quiescent());
        assert_eq!(held(&w), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_sends_rejected() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(1), 1, 1, 0, 8, None, SimTime::ZERO);
    }

    // ------------------------------------------------------------------
    // Tag namespace separation (control plane vs. application)
    // ------------------------------------------------------------------

    #[test]
    fn wire_token_encoding_is_injective_up_to_max_msg_id() {
        // decode ∘ encode is the identity for every representable id and
        // every protocol phase — including both ends of the id range.
        for id in [0, 1, 2, 1 << 20, MAX_MSG_ID - 1, MAX_MSG_ID] {
            for ph in [PH_RTS, PH_CTS, PH_DATA, PH_ACK] {
                assert_eq!(decode(encode(id, ph)), (id, ph));
            }
        }
        // Distinct (id, phase) pairs map to distinct tokens.
        let ids = [0u64, 1, 7, MAX_MSG_ID];
        let mut seen = std::collections::BTreeSet::new();
        for &id in &ids {
            for ph in [PH_RTS, PH_CTS, PH_DATA, PH_ACK] {
                assert!(
                    seen.insert(encode(id, ph)),
                    "token collision at ({id}, {ph})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "wire-token namespace")]
    fn message_ids_past_the_encoding_bound_are_rejected() {
        encode(MAX_MSG_ID + 1, PH_ACK);
    }

    #[test]
    #[should_panic(expected = "reserved control-plane namespace")]
    fn reserved_tags_are_rejected_at_isend() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(0), 0, 1, APP_TAG_LIMIT, 8, None, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "reserved control-plane namespace")]
    fn reserved_tags_are_rejected_at_irecv() {
        let (_m, mut w) = setup(2);
        w.irecv(1, 0, u64::MAX);
    }

    #[test]
    fn app_tags_below_the_boundary_still_flow() {
        // Regression: the largest legal app tag is an ordinary tag — the
        // namespace check must not clip real traffic.
        let (mut m, mut w) = setup(2);
        let tag = APP_TAG_LIMIT - 1;
        w.isend(&mut m.ctx(0), 0, 1, tag, 8, Some(vec![6.5]), SimTime::ZERO);
        let r = w.irecv(1, 0, tag);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r));
        assert_eq!(w.take_payload(r), Some(vec![6.5]));
    }

    // ------------------------------------------------------------------
    // Reliable (fault-plane) mode
    // ------------------------------------------------------------------

    use sw_resilience::FaultConfig;

    fn reliable(n: usize, cfg: FaultConfig) -> (Machine, MpiWorld, Arc<FaultPlan>) {
        let (mut m, mut w) = setup(n);
        let plan = Arc::new(FaultPlan::new(cfg));
        w.set_fault_plan(plan.clone());
        m.set_fault_plan(plan.clone());
        (m, w, plan)
    }

    /// Drain events and progress both ranks until the world is quiescent
    /// (or a step budget is exhausted — which fails the test).
    fn settle(m: &mut Machine, w: &mut MpiWorld, ranks: usize) {
        for _ in 0..64 {
            drain(m, w);
            let now = m.now();
            let mut acted = 0;
            for r in 0..ranks {
                acted += w.progress(r, &mut m.ctx(r), now);
            }
            if w.quiescent() && m.peek_time().is_none() {
                return;
            }
            if acted == 0 && m.peek_time().is_none() {
                // Only a future resend deadline can move things forward.
                let dl = (0..ranks).filter_map(|r| w.next_deadline(r)).min();
                match dl {
                    Some(t) => {
                        // Jump virtual time by scheduling + popping a timer.
                        m.timer_at(0, t, u64::MAX);
                        let _ = m.pop();
                    }
                    None => break,
                }
            }
        }
        panic!("world failed to settle: quiescent={}", w.quiescent());
    }

    #[test]
    fn dropped_payload_is_detected_resent_and_recovered() {
        // Force a drop on attempt 0; guarantee_recovery cleans later tries.
        let cfg = FaultConfig {
            msg_drop_ppm: 999_999,
            max_attempts: 4,
            ..FaultConfig::none(21)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        let data = vec![4.25, -1.5];
        let s = w.isend(
            &mut m.ctx(0),
            0,
            1,
            7,
            16,
            Some(data.clone()),
            SimTime::ZERO,
        );
        let r = w.irecv(1, 0, 7);
        settle(&mut m, &mut w, 2);
        assert!(w.send_done(s) && w.recv_done(r));
        assert_eq!(w.take_payload(r), Some(data), "payload survives the drop");
        let c = plan.stats.snapshot();
        assert!(c.injected_msg_drop >= 1);
        assert_eq!(c.detected_msg, c.injected_msg_drop, "every drop detected");
        assert!(c.resends_msg >= 1);
        assert_eq!(c.recovered_msg, 1, "exactly one message recovered");
        assert_eq!(c.unrecovered, 0);
        assert!(w.quiescent(), "ack drained, nothing live");
        assert_eq!(w.unacked(0), 0);
    }

    #[test]
    fn duplicate_delivery_is_suppressed_exactly_once() {
        let cfg = FaultConfig {
            msg_dup_ppm: 999_999,
            ..FaultConfig::none(22)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        let s = w.isend(&mut m.ctx(0), 0, 1, 5, 8, Some(vec![9.0]), SimTime::ZERO);
        let r = w.irecv(1, 0, 5);
        settle(&mut m, &mut w, 2);
        assert!(w.send_done(s) && w.recv_done(r));
        assert_eq!(w.take_payload(r), Some(vec![9.0]));
        let c = plan.stats.snapshot();
        assert_eq!(c.injected_msg_dup, 1);
        assert_eq!(
            c.duplicates_suppressed, 1,
            "two copies on the wire, one delivery, one suppression"
        );
        assert_eq!(w.recvs_completed, 1, "receive completed exactly once");
    }

    #[test]
    fn delayed_payload_arrives_late_but_intact() {
        let cfg = FaultConfig {
            msg_delay_ppm: 999_999,
            delay_ps: 5_000_000,
            ..FaultConfig::none(23)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        w.isend(&mut m.ctx(0), 0, 1, 3, 8, Some(vec![1.0]), SimTime::ZERO);
        let r = w.irecv(1, 0, 3);
        settle(&mut m, &mut w, 2);
        assert!(w.recv_done(r));
        assert!(m.now().0 >= 5_000_000, "delivery waited out the delay");
        assert_eq!(plan.stats.snapshot().injected_msg_delay, 1);
    }

    #[test]
    fn exhausted_retry_budget_forces_delivery_and_counts_unrecovered() {
        // Hostile: every attempt drops and recovery is NOT guaranteed.
        let cfg = FaultConfig {
            msg_drop_ppm: 999_999,
            max_attempts: 2,
            guarantee_recovery: false,
            ..FaultConfig::none(24)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        let r = w.irecv(1, 0, 1);
        w.isend(&mut m.ctx(0), 0, 1, 1, 8, Some(vec![2.0]), SimTime::ZERO);
        settle(&mut m, &mut w, 2);
        assert!(w.recv_done(r), "forced delivery still completes the run");
        assert_eq!(w.take_payload(r), Some(vec![2.0]));
        let c = plan.stats.snapshot();
        assert!(c.unrecovered >= 1, "budget exhaustion is accounted");
    }

    #[test]
    fn rendezvous_payload_goes_through_fault_plane_too() {
        let cfg = FaultConfig {
            msg_drop_ppm: 999_999,
            max_attempts: 3,
            ..FaultConfig::none(25)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        let bytes = 1_000_000; // > eager limit: rendezvous
        let s = w.isend(&mut m.ctx(0), 0, 1, 9, bytes, None, SimTime::ZERO);
        let r = w.irecv(1, 0, 9);
        settle(&mut m, &mut w, 2);
        assert!(w.send_done(s) && w.recv_done(r));
        let c = plan.stats.snapshot();
        assert!(c.injected_msg_drop >= 1, "rendezvous payload was dropped");
        assert_eq!(c.unrecovered, 0);
        assert!(w.quiescent());
    }

    #[test]
    fn clean_plan_matches_unfaulted_protocol_shape() {
        // A fault plan that injects nothing still runs the ack layer;
        // message delivery and payloads are unchanged.
        let (mut m, mut w, plan) = reliable(2, FaultConfig::none(26));
        let s = w.isend(&mut m.ctx(0), 0, 1, 7, 8, Some(vec![3.5]), SimTime::ZERO);
        let r = w.irecv(1, 0, 7);
        assert_eq!(w.unacked(0), 1);
        settle(&mut m, &mut w, 2);
        assert!(w.send_done(s) && w.recv_done(r));
        assert_eq!(w.take_payload(r), Some(vec![3.5]));
        assert_eq!(w.unacked(0), 0);
        assert_eq!(plan.stats.snapshot().total_injected(), 0);
        assert!(w.quiescent());
    }

    // ------------------------------------------------------------------
    // Multi-endpoint routing, crossover, aggregation, progress lane
    // ------------------------------------------------------------------

    use sw_telemetry::Recorder;

    fn comm(endpoints: u32, agg_bytes: u64, agg_deadline_ps: u64) -> CommConfig {
        CommConfig {
            endpoints,
            agg_bytes,
            agg_deadline_ps,
            ..CommConfig::default()
        }
    }

    #[test]
    fn endpoint_routing_is_deterministic_and_in_range() {
        let c = comm(4, 0, 0);
        for src in 0..3usize {
            for dst in 0..3usize {
                for tag in [0u64, 7, 12345] {
                    let ep = c.route(src, dst, tag);
                    assert!(ep < 4);
                    assert_eq!(ep, c.route(src, dst, tag), "pure function");
                }
            }
        }
        // One endpoint: everything on lane 0, no hash in the path.
        let c1 = comm(1, 0, 0);
        assert_eq!(c1.route(2, 1, 99), 0);
        // The spread is non-trivial: some pair of channels lands on
        // different lanes (fold is a real hash, not a constant).
        let lanes: std::collections::BTreeSet<u32> = (0..16u64).map(|t| c.route(0, 1, t)).collect();
        assert!(lanes.len() > 1, "16 tags all hashed to one endpoint");
    }

    #[test]
    fn endpoints_deliver_the_same_payloads_as_one_lane() {
        // Same traffic, 1 vs 4 endpoints: identical payloads, identical
        // matching order — endpoints change injection timing only.
        let run = |endpoints: u32| -> Vec<Vec<f64>> {
            let (mut m, mut w) = setup(3);
            w.set_comm(comm(endpoints, 0, 0));
            let mut handles = Vec::new();
            for i in 0..6u64 {
                let src = (i % 2) as usize;
                let payload = vec![i as f64, (i * i) as f64];
                w.isend(
                    &mut m.ctx(src),
                    src,
                    2,
                    i % 3,
                    64 + i,
                    Some(payload),
                    SimTime::ZERO,
                );
                handles.push(w.irecv(2, src, i % 3));
            }
            for _ in 0..16 {
                drain(&mut m, &mut w);
                let now = m.now();
                for r in 0..3 {
                    w.progress(r, &mut m.ctx(r), now);
                }
                if w.quiescent() {
                    break;
                }
            }
            assert!(w.quiescent());
            handles
                .into_iter()
                .map(|h| w.take_payload(h).unwrap())
                .collect()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn crossover_overrides_the_machine_eager_limit() {
        // Below the machine limit but above a tiny crossover: rendezvous.
        let (mut m, mut w) = setup(2);
        w.set_comm(CommConfig {
            eager_crossover: Some(256),
            ..CommConfig::default()
        });
        let s = w.isend(&mut m.ctx(0), 0, 1, 1, 257, None, SimTime::ZERO);
        assert!(!w.send_done(s), "257 > crossover 256: rendezvous path");
        // At the threshold: eager.
        let s2 = w.isend(&mut m.ctx(0), 0, 1, 2, 256, None, SimTime::ZERO);
        assert!(w.send_done(s2), "256 <= crossover 256: eager path");
        // Above the machine limit but under a raised crossover: eager.
        let (mut m3, mut w3) = setup(2);
        let machine_limit = MachineConfig::sw26010().eager_limit_bytes as u64;
        w3.set_comm(CommConfig {
            eager_crossover: Some(machine_limit * 4),
            ..CommConfig::default()
        });
        let s3 = w3.isend(
            &mut m3.ctx(0),
            0,
            1,
            1,
            machine_limit * 2,
            None,
            SimTime::ZERO,
        );
        assert!(w3.send_done(s3), "crossover raised the eager boundary");
    }

    #[test]
    fn aggregation_flushes_by_bytes_and_unpacks_in_push_order() {
        let (mut m, mut w) = setup(2);
        w.set_comm(comm(1, 48, 1_000_000_000));
        let s1 = w.isend(&mut m.ctx(0), 0, 1, 5, 16, Some(vec![1.0]), SimTime::ZERO);
        let s2 = w.isend(&mut m.ctx(0), 0, 1, 5, 16, Some(vec![2.0]), SimTime::ZERO);
        assert!(w.send_done(s1) && w.send_done(s2), "staged sends complete");
        assert_eq!(w.staged(0), 2, "both parked below the 48-byte threshold");
        assert!(m.peek_time().is_none(), "nothing on the wire yet");
        // Third push crosses the threshold: one coalesced packet.
        w.isend(&mut m.ctx(0), 0, 1, 5, 16, Some(vec![3.0]), SimTime::ZERO);
        assert_eq!(w.staged(0), 0, "flush-by-bytes drained the buffer");
        let r1 = w.irecv(1, 0, 5);
        let r2 = w.irecv(1, 0, 5);
        let r3 = w.irecv(1, 0, 5);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        // Push order preserved through the coalesced packet.
        assert_eq!(w.take_payload(r1), Some(vec![1.0]));
        assert_eq!(w.take_payload(r2), Some(vec![2.0]));
        assert_eq!(w.take_payload(r3), Some(vec![3.0]));
        assert!(w.quiescent());
    }

    #[test]
    fn aggregation_flushes_by_deadline() {
        let (mut m, mut w) = setup(2);
        let deadline = 5_000_000u64;
        w.set_comm(comm(1, 1 << 30, deadline));
        w.isend(&mut m.ctx(0), 0, 1, 3, 8, Some(vec![7.5]), SimTime::ZERO);
        assert_eq!(w.staged(0), 1);
        assert_eq!(w.next_flush_at(0), Some(SimTime(deadline)));
        // Progress before the deadline: still parked.
        w.progress(0, &mut m.ctx(0), SimTime(deadline - 1));
        assert_eq!(w.staged(0), 1);
        // Progress at the deadline: flushed.
        let acted = w.progress(0, &mut m.ctx(0), SimTime(deadline));
        assert!(acted >= 1);
        assert_eq!(w.staged(0), 0);
        assert_eq!(w.next_flush_at(0), None);
        let r = w.irecv(1, 0, 3);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert_eq!(w.take_payload(r), Some(vec![7.5]));
        assert!(w.quiescent());
    }

    #[test]
    fn progress_on_attributes_actions_to_the_given_lane() {
        let (mut m, mut w) = setup(2);
        w.set_recorder(Recorder::new(2));
        w.isend(&mut m.ctx(0), 0, 1, 7, 8, Some(vec![1.0]), SimTime::ZERO);
        let r = w.irecv(1, 0, 7);
        drain(&mut m, &mut w);
        let now = m.now();
        w.progress_on(1, &mut m.ctx(1), now, Lane::Progress);
        assert!(w.recv_done(r));
        let snap = w.rec.snapshot();
        assert!(
            snap[1]
                .iter()
                .any(|e| e.lane == Lane::Progress && matches!(e.event, Event::MsgDelivered { .. })),
            "delivery recorded on the progress lane"
        );
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn aggregation_rejects_fault_plans() {
        let (_m, mut w) = setup(2);
        w.set_comm(comm(1, 512, 1_000));
        w.set_fault_plan(Arc::new(FaultPlan::new(FaultConfig::none(1))));
    }

    #[test]
    fn stores_stay_bounded_over_10k_messages() {
        // Regression: compaction used to wait for quiescence and the
        // reliable layer kept a retired-id set forever. Every store must
        // stay O(live traffic) over a long campaign — including for a
        // caller that only polls handles and never calls `test`,
        // `retire_recv` or `compact`.
        let (mut m, mut w, _plan) = reliable(2, FaultConfig::none(30));
        let mut max = (0, 0, 0);
        for i in 0..10_000u64 {
            w.isend(
                &mut m.ctx(0),
                0,
                1,
                1,
                8,
                Some(vec![i as f64]),
                SimTime::ZERO,
            );
            let r = w.irecv(1, 0, 1);
            // Payload over, consumed, ack back.
            drain(&mut m, &mut w);
            let now = m.now();
            w.progress(1, &mut m.ctx(1), now);
            drain(&mut m, &mut w);
            assert_eq!(w.take_payload(r), Some(vec![i as f64]));
            let (msgs, recvs, cq) = held(&w);
            max = (max.0.max(msgs), max.1.max(recvs), max.2.max(cq));
        }
        assert!(w.quiescent());
        assert_eq!(max, (0, 0, 0), "everything reclaimed after each round");
        assert!(w.ranks.iter().all(|st| st.inbox.is_empty()));
    }

    #[test]
    fn probe_then_retire_agrees_under_duplicate_suppression() {
        // Bugfix regression: a suppressed duplicate must never make iprobe
        // report a message that take_payload/retire_recv can't finish.
        let cfg = FaultConfig {
            msg_dup_ppm: 999_999,
            ..FaultConfig::none(31)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        w.isend(&mut m.ctx(0), 0, 1, 5, 8, Some(vec![4.0]), SimTime::ZERO);
        drain(&mut m, &mut w);
        assert!(w.iprobe(1, 0, 5), "arrived (twice), unmatched");
        // Probe-then-retire sequence: post, progress, take, retire.
        let r = w.irecv(1, 0, 5);
        let now = m.now();
        w.progress(1, &mut m.ctx(1), now);
        assert!(w.recv_done(r));
        assert!(!w.iprobe(1, 0, 5), "claimed: probe must go quiet");
        assert_eq!(w.take_payload(r), Some(vec![4.0]));
        w.retire_recv(r);
        // The ack (and any straggler duplicate) drains without protest.
        settle(&mut m, &mut w, 2);
        assert!(w.quiescent());
        assert!(!w.iprobe(1, 0, 5), "retired: probe stays quiet");
        assert_eq!(plan.stats.snapshot().duplicates_suppressed, 1);
        // Late wire copies of the retired id are suppressed off the minted
        // watermark, not a stored set.
        w.on_wire(encode(0, PH_DATA));
        assert_eq!(plan.stats.snapshot().duplicates_suppressed, 2);
    }

    #[test]
    #[should_panic(expected = "unknown message")]
    fn never_minted_wire_tokens_still_panic() {
        let (_m, mut w, _plan) = reliable(2, FaultConfig::none(32));
        w.on_wire(encode(99, PH_DATA));
    }
}
