//! The machine: a set of core groups connected by the TaihuLight network.
//!
//! Since the conservative-PDES rework each core group owns its *own*
//! event queue and logical clock (a [`Shard`]); cross-CG traffic leaves a
//! shard through an **outbox** and is merged into the destination shard's
//! queue at a deterministic barrier. Rank-local layers act on the machine
//! through a [`MachineCtx`] — a borrow of exactly one shard plus the
//! immutable machine-wide state — which is what makes it sound to advance
//! many CGs concurrently on scoped threads.
//!
//! The machine layer knows about *hardware* happenings only; semantic layers
//! mint opaque tokens and interpret them when the corresponding
//! [`MachineEvent`] pops:
//!
//! * `sw-athread` mints kernel tokens and handles [`MachineEvent::KernelDone`],
//! * `sw-mpi` mints message tokens and handles [`MachineEvent::NetDeliver`],
//! * schedulers mint timer tokens and handle [`MachineEvent::Timer`].
//!
//! The pre-PDES whole-machine API (`pop`, `peek_time`, `net_send`, …) is
//! kept as a facade over the shards: it scans for the globally earliest
//! event and drains outboxes eagerly, so single-threaded callers and tests
//! observe one deterministic global timeline.

use std::sync::Arc;

use sw_resilience::{FaultPlan, FaultStats, OffloadKey};
use sw_telemetry::{Event, Lane, Recorder};

use crate::config::MachineConfig;
use crate::event::EventQueue;
use crate::flops::FlopCounters;
use crate::mpe::MpeClock;
use crate::noise::KernelNoise;
use crate::time::{SimDur, SimTime};

/// Index of a core group (used as the node/rank id: the paper uses CGs as
/// separate computing nodes, §IV-A).
pub type CgId = usize;

/// Hardware-level events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineEvent {
    /// A CPE kernel finished and its completion flag was incremented to done.
    KernelDone {
        /// CG whose CPE cluster finished.
        cg: CgId,
        /// Token minted by the offloading layer.
        token: u64,
    },
    /// A network message fully arrived at the destination NIC.
    NetDeliver {
        /// Destination CG.
        dst: CgId,
        /// Token minted by the sending layer.
        token: u64,
    },
    /// A wakeup timer for a CG's MPE (completion-flag polls etc.).
    Timer {
        /// CG to wake.
        cg: CgId,
        /// Token minted by the scheduling layer.
        token: u64,
    },
}

/// State of one core group.
#[derive(Debug)]
pub struct Cg {
    /// The management element's serial clock.
    pub mpe: MpeClock,
    /// Emulated floating-point hardware counters (summed over the CG).
    pub counters: FlopCounters,
    /// End of the latest-finishing kernel on the cluster (slot occupancy is
    /// enforced by the athread layer, which may split the cluster into
    /// groups — paper §IX future work).
    cpe_busy_until: SimTime,
    /// Injection serialization points of this CG's NIC, one per endpoint
    /// lane (grown on demand; endpoint 0 is the classic single lane).
    /// Distinct lanes inject concurrently — the multi-endpoint model of
    /// the communication layer maps each simulated MPI endpoint onto its
    /// own lane so a bulk transfer cannot head-of-line-block control
    /// packets routed to a different endpoint.
    nic_free_at: Vec<SimTime>,
    /// Accumulated CPE-cluster busy time.
    cpe_busy_total: SimDur,
}

impl Cg {
    fn new() -> Self {
        Cg {
            mpe: MpeClock::new(),
            counters: FlopCounters::new(),
            cpe_busy_until: SimTime::ZERO,
            nic_free_at: Vec::new(),
            cpe_busy_total: SimDur::ZERO,
        }
    }

    /// When the CPE cluster finishes its current kernel.
    pub fn cpe_busy_until(&self) -> SimTime {
        self.cpe_busy_until
    }

    /// Total CPE-cluster busy time (utilization statistic).
    pub fn cpe_busy_total(&self) -> SimDur {
        self.cpe_busy_total
    }
}

/// Aggregate machine statistics.
#[derive(Clone, Debug, Default)]
pub struct MachineStats {
    /// Kernels offloaded to CPE clusters.
    pub kernels: u64,
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Total payload bytes sent on the network.
    pub net_bytes: u64,
    /// Timer events scheduled.
    pub timers: u64,
}

impl MachineStats {
    fn merge(&mut self, o: &MachineStats) {
        self.kernels += o.kernels;
        self.messages += o.messages;
        self.net_bytes += o.net_bytes;
        self.timers += o.timers;
    }
}

/// A message crossing shard boundaries: `(deliver, dst, token)`, parked in
/// the source shard's outbox until the next barrier merge.
type Outbound = (SimTime, CgId, u64);

/// One core group's slice of the machine: its event queue/logical clock,
/// hardware state, seeded noise stream, and outbox of cross-CG deliveries.
struct Shard {
    queue: EventQueue<MachineEvent>,
    cg: Cg,
    /// Per-shard noise stream so concurrent shards draw independently and
    /// deterministically (seed is mixed with the CG id).
    noise: Option<KernelNoise>,
    speed: f64,
    stats: MachineStats,
    outbox: Vec<Outbound>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            queue: EventQueue::new(),
            cg: Cg::new(),
            noise: None,
            speed: 1.0,
            stats: MachineStats::default(),
            outbox: Vec::new(),
        }
    }
}

/// Mix a machine-level noise seed with a CG id. CG 0 maps to the seed
/// unchanged, so single-CG noise streams match the pre-shard machine.
fn mix_seed(seed: u64, cg: CgId) -> u64 {
    seed ^ (cg as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A cross-CG delivery that lands *inside* the lookahead window just
/// drained — the conservative-PDES contract broken. Returned (typed, not
/// panicked) by [`Machine::merge_outboxes`] so pre-run checkers and the
/// controller can observe it gracefully; the panicking `Simulation::run`
/// API converts it back into the historical panic message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookaheadViolation {
    /// Source CG whose outbox held the offending message.
    pub src: CgId,
    /// Destination CG the message was addressed to.
    pub dst: CgId,
    /// Opaque message token (the communicator's wire id).
    pub token: u64,
    /// Modeled delivery instant.
    pub at: SimTime,
    /// End of the window that was already drained.
    pub window_end: SimTime,
}

impl std::fmt::Display for LookaheadViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lookahead violation: message from CG {} delivers at {}, \
             inside the window ending at {}",
            self.src, self.at, self.window_end
        )
    }
}

impl std::error::Error for LookaheadViolation {}

/// The simulated machine: `n` CGs plus the interconnect.
///
/// ```
/// use sw_sim::{Machine, MachineConfig, MachineEvent, SimDur, SimTime};
///
/// let mut m = Machine::new(MachineConfig::sw26010(), 2);
/// // Offload a 100us kernel to CG 0 and send 1 KiB from CG 0 to CG 1.
/// let done = m.offload_kernel(0, SimTime::ZERO, SimDur::from_us(100.0), 7);
/// m.net_send(0, 1, 1024, SimTime::ZERO, 9);
/// // The message (1us latency + wire time) pops before the kernel.
/// let (t1, ev1) = m.pop().unwrap();
/// assert!(matches!(ev1, MachineEvent::NetDeliver { dst: 1, token: 9 }));
/// let (t2, ev2) = m.pop().unwrap();
/// assert_eq!(t2, done);
/// assert!(matches!(ev2, MachineEvent::KernelDone { cg: 0, token: 7 }));
/// assert!(t1 < t2);
/// ```
pub struct Machine {
    cfg: MachineConfig,
    shards: Vec<Shard>,
    /// Telemetry sink for hardware-level events (disabled by default; the
    /// controller threads the run's recorder in via [`Machine::set_recorder`]).
    rec: Recorder,
    /// Optional fault plan consulted at the DMA boundary
    /// ([`Machine::offload_kernel_keyed`]) and for rank-level NIC jitter.
    faults: Option<Arc<FaultPlan>>,
    /// Noise parameters, kept so late-constructed shards could reuse them
    /// and so [`Machine::set_noise`] stays idempotent per shard.
    noise: Option<(f64, u64)>,
    /// When `Some`, every cross-shard delivery merged by
    /// [`Machine::merge_outboxes`] is appended as `(src, dst)` — the
    /// window-interaction edges the DPOR explorer builds its dependency
    /// graphs from. Drained with [`Machine::take_merge_log`].
    merge_log: Option<Vec<(CgId, CgId)>>,
}

impl Machine {
    /// A machine of `n_cgs` core groups with configuration `cfg`.
    pub fn new(cfg: MachineConfig, n_cgs: usize) -> Self {
        assert!(n_cgs >= 1);
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid machine configuration: {e}"));
        Machine {
            cfg,
            shards: (0..n_cgs).map(|_| Shard::new()).collect(),
            rec: Recorder::off(),
            faults: None,
            noise: None,
            merge_log: None,
        }
    }

    /// Thread a telemetry recorder through the machine's hardware events.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// The machine's telemetry recorder (disabled unless set/enabled).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Thread a fault plan through the machine's DMA and NIC boundaries.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// The machine's fault plan, when one is installed.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Enable seeded kernel-duration noise of up to `frac`.
    ///
    /// Each CG draws from its own stream (seed mixed with the CG id), so
    /// noise stays bit-reproducible when shards advance concurrently.
    pub fn set_noise(&mut self, frac: f64, seed: u64) {
        self.noise = (frac > 0.0).then_some((frac, seed));
        for (cg, shard) in self.shards.iter_mut().enumerate() {
            shard.noise = (frac > 0.0).then(|| KernelNoise::new(frac, mix_seed(seed, cg)));
        }
    }

    /// Set one CG's relative speed (e.g. 0.5 = half as fast).
    ///
    /// # Panics
    /// Panics on non-positive speeds.
    pub fn set_cg_speed(&mut self, cg: CgId, speed: f64) {
        assert!(speed > 0.0, "speed must be positive");
        self.shards[cg].speed = speed;
    }

    /// A CG's relative speed.
    pub fn cg_speed(&self, cg: CgId) -> f64 {
        self.shards[cg].speed
    }

    /// The machine configuration.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of core groups.
    pub fn n_cgs(&self) -> usize {
        self.shards.len()
    }

    /// Current virtual time: the furthest-advanced shard clock.
    pub fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.queue.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// One shard's logical clock.
    pub fn shard_now(&self, cg: CgId) -> SimTime {
        self.shards[cg].queue.now()
    }

    /// Timestamp of one shard's next queued event (outboxes not included).
    pub fn shard_peek(&self, cg: CgId) -> Option<SimTime> {
        self.shards[cg].queue.peek_time()
    }

    /// Pop the globally earliest hardware event, advancing that shard's
    /// clock. Outboxes are merged first so cross-CG messages are visible;
    /// ties across shards break by CG id (within a shard, by schedule
    /// order), which keeps the facade timeline deterministic.
    pub fn pop(&mut self) -> Option<(SimTime, MachineEvent)> {
        self.merge_outboxes(None)
            .expect("merge without a window floor cannot violate lookahead");
        let rank = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(r, s)| s.queue.peek_time().map(|t| (t, r)))
            .min()?
            .1;
        self.shards[rank].queue.pop()
    }

    /// Timestamp of the next pending event anywhere (queues and outboxes).
    pub fn peek_time(&self) -> Option<SimTime> {
        let queued = self.shards.iter().filter_map(|s| s.queue.peek_time());
        let outbound = self
            .shards
            .iter()
            .flat_map(|s| s.outbox.iter().map(|&(at, _, _)| at));
        queued.chain(outbound).min()
    }

    /// Merge every shard's outbox into the destination queues, in source
    /// rank order and outbox push order — the deterministic barrier of the
    /// window protocol. With `floor = Some(end)` (the window end), a
    /// delivery scheduled before `end` is a **lookahead violation**: the
    /// conservative contract promised no cross-CG message could land inside
    /// the window just drained. The violation is returned as a typed error
    /// (the static lookahead proof in `sw-analyze` rules it out pre-run);
    /// on `Err` **no** delivery has been applied and every outbox is left
    /// intact, so checkers can inspect the offending state.
    pub fn merge_outboxes(&mut self, floor: Option<SimTime>) -> Result<(), LookaheadViolation> {
        // Validate all-or-nothing before anything moves.
        if let Some(end) = floor {
            for (src, shard) in self.shards.iter().enumerate() {
                for &(at, dst, token) in &shard.outbox {
                    if at < end {
                        return Err(LookaheadViolation {
                            src,
                            dst,
                            token,
                            at,
                            window_end: end,
                        });
                    }
                }
            }
        }
        for src in 0..self.shards.len() {
            // Taken out so `shards[dst]` can be borrowed, then handed back
            // with its capacity for the next window.
            let mut outbox = std::mem::take(&mut self.shards[src].outbox);
            for (at, dst, token) in outbox.drain(..) {
                if let Some(log) = &mut self.merge_log {
                    log.push((src, dst));
                }
                self.shards[dst]
                    .queue
                    .schedule_at(at, MachineEvent::NetDeliver { dst, token });
            }
            self.shards[src].outbox = outbox;
        }
        Ok(())
    }

    /// Start (or stop) logging the `(src, dst)` pair of every merged
    /// cross-shard delivery. The DPOR explorer uses the per-window logs as
    /// interaction edges; off by default (zero cost).
    pub fn set_merge_log(&mut self, on: bool) {
        self.merge_log = on.then(Vec::new);
    }

    /// Drain the merge log accumulated since the last call (empty when
    /// logging is off).
    pub fn take_merge_log(&mut self) -> Vec<(CgId, CgId)> {
        self.merge_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// True when any shard still has an undelivered outbox entry.
    pub fn has_outbound(&self) -> bool {
        self.shards.iter().any(|s| !s.outbox.is_empty())
    }

    /// Events processed so far, summed over shards.
    pub fn events_popped(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.popped()).sum()
    }

    /// Aggregate statistics, summed over shards.
    pub fn stats(&self) -> MachineStats {
        let mut total = MachineStats::default();
        for s in &self.shards {
            total.merge(&s.stats);
        }
        total
    }

    /// Access a CG.
    pub fn cg(&self, id: CgId) -> &Cg {
        &self.shards[id].cg
    }

    /// Mutably access a CG.
    pub fn cg_mut(&mut self, id: CgId) -> &mut Cg {
        &mut self.shards[id].cg
    }

    /// Sum the flop counters of all CGs.
    pub fn total_flops(&self) -> FlopCounters {
        let mut total = FlopCounters::new();
        for s in &self.shards {
            total.merge(&s.cg.counters);
        }
        total
    }

    /// Borrow one shard as a [`MachineCtx`] — the machine handle a rank's
    /// layers (athread, MPI, scheduler) act through.
    pub fn ctx(&mut self, rank: CgId) -> MachineCtx<'_> {
        let n_cgs = self.shards.len();
        MachineCtx {
            rank,
            n_cgs,
            cfg: &self.cfg,
            shard: &mut self.shards[rank],
            rec: &self.rec,
            faults: self.faults.as_ref(),
        }
    }

    /// Borrow **all** shards as disjoint [`MachineCtx`]s at once, for the
    /// PDES engine to hand out across scoped threads.
    pub fn ctxs(&mut self) -> Vec<MachineCtx<'_>> {
        let n_cgs = self.shards.len();
        let cfg = &self.cfg;
        let rec = &self.rec;
        let faults = self.faults.as_ref();
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(rank, shard)| MachineCtx {
                rank,
                n_cgs,
                cfg,
                shard,
                rec,
                faults,
            })
            .collect()
    }

    /// Run a kernel on (a group of) `cg`'s CPE cluster for `dur`, starting
    /// no earlier than `start`. Facade over [`MachineCtx::offload_kernel`].
    pub fn offload_kernel(&mut self, cg: CgId, start: SimTime, dur: SimDur, token: u64) -> SimTime {
        self.ctx(cg)
            .offload_kernel_keyed(cg, start, dur, token, None)
            .expect("unkeyed offloads never fault")
    }

    /// [`Machine::offload_kernel`] with an optional fault-plan key. Facade
    /// over [`MachineCtx::offload_kernel_keyed`].
    pub fn offload_kernel_keyed(
        &mut self,
        cg: CgId,
        start: SimTime,
        dur: SimDur,
        token: u64,
        key: Option<&OffloadKey>,
    ) -> Option<SimTime> {
        self.ctx(cg)
            .offload_kernel_keyed(cg, start, dur, token, key)
    }

    /// Inject a message of `bytes` from `src` to `dst`. Facade over
    /// [`MachineCtx::net_send`] that merges the outbox immediately, so the
    /// delivery is visible to the next [`Machine::pop`].
    pub fn net_send(
        &mut self,
        src: CgId,
        dst: CgId,
        bytes: u64,
        when: SimTime,
        token: u64,
    ) -> SimTime {
        let deliver = self.ctx(src).net_send(src, dst, bytes, when, token);
        self.merge_outboxes(None)
            .expect("merge without a window floor cannot violate lookahead");
        deliver
    }

    /// Schedule a wakeup timer for `cg` at `at` (clamped to its clock).
    pub fn timer_at(&mut self, cg: CgId, at: SimTime, token: u64) {
        self.ctx(cg).timer_at(cg, at, token);
    }
}

/// A single shard's view of the machine: everything a rank's semantic
/// layers may touch while that rank is being advanced (possibly on a
/// worker thread, concurrently with other shards).
///
/// The method names mirror [`Machine`]'s, so layer code reads identically;
/// CG-indexed methods assert the index is this context's own rank — the
/// only cross-rank action a shard may take is [`MachineCtx::net_send`],
/// which parks the delivery in the outbox for the barrier merge.
pub struct MachineCtx<'a> {
    rank: CgId,
    n_cgs: usize,
    cfg: &'a MachineConfig,
    shard: &'a mut Shard,
    rec: &'a Recorder,
    faults: Option<&'a Arc<FaultPlan>>,
}

impl MachineCtx<'_> {
    /// The rank this context is bound to.
    pub fn rank(&self) -> CgId {
        self.rank
    }

    /// Reborrow this context with a shorter lifetime — hand a by-value
    /// `MachineCtx` to a callee (e.g. a `StepCtx`) without giving up the
    /// original.
    pub fn reborrow(&mut self) -> MachineCtx<'_> {
        MachineCtx {
            rank: self.rank,
            n_cgs: self.n_cgs,
            cfg: self.cfg,
            shard: &mut *self.shard,
            rec: self.rec,
            faults: self.faults,
        }
    }

    /// Number of core groups in the whole machine.
    pub fn n_cgs(&self) -> usize {
        self.n_cgs
    }

    /// The machine configuration.
    pub fn cfg(&self) -> &MachineConfig {
        self.cfg
    }

    /// This shard's logical clock.
    pub fn now(&self) -> SimTime {
        self.shard.queue.now()
    }

    /// The telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        self.rec
    }

    /// The fault plan, when one is installed.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults
    }

    /// This shard's CG state. `id` must be this context's rank.
    pub fn cg(&self, id: CgId) -> &Cg {
        assert_eq!(id, self.rank, "shard ctx may only touch its own CG");
        &self.shard.cg
    }

    /// Mutable CG state. `id` must be this context's rank.
    pub fn cg_mut(&mut self, id: CgId) -> &mut Cg {
        assert_eq!(id, self.rank, "shard ctx may only touch its own CG");
        &mut self.shard.cg
    }

    /// This CG's relative speed. `id` must be this context's rank.
    pub fn cg_speed(&self, id: CgId) -> f64 {
        assert_eq!(id, self.rank, "shard ctx may only touch its own CG");
        self.shard.speed
    }

    /// Timestamp of this shard's next queued event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.shard.queue.peek_time()
    }

    /// Pop this shard's next event if it fires strictly before `bound`
    /// (the current window end), advancing the shard clock.
    pub fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, MachineEvent)> {
        if self.shard.queue.peek_time()? < bound {
            self.shard.queue.pop()
        } else {
            None
        }
    }

    /// Run a kernel on this CG's CPE cluster (see [`Machine::offload_kernel`]).
    pub fn offload_kernel(&mut self, cg: CgId, start: SimTime, dur: SimDur, token: u64) -> SimTime {
        self.offload_kernel_keyed(cg, start, dur, token, None)
            .expect("unkeyed offloads never fault")
    }

    /// [`MachineCtx::offload_kernel`] with an optional fault-plan key.
    ///
    /// When a fault plan is installed and `key` is provided, the plan may
    /// inject a **DMA transfer error**: the kernel never starts, no
    /// [`MachineEvent::KernelDone`] is scheduled, and `None` is returned.
    /// The caller (athread layer) keeps the slot occupied until its MPE
    /// deadline detector fires — exactly like a silent slot death.
    pub fn offload_kernel_keyed(
        &mut self,
        cg: CgId,
        start: SimTime,
        dur: SimDur,
        token: u64,
        key: Option<&OffloadKey>,
    ) -> Option<SimTime> {
        assert_eq!(cg, self.rank, "shard ctx may only offload to its own CG");
        let begin = start.max(self.shard.queue.now());
        if let (Some(plan), Some(k)) = (self.faults, key) {
            if plan.dma_fault(k) {
                FaultStats::bump(&plan.stats.injected_dma_error);
                self.rec.record(
                    cg,
                    begin.0,
                    Lane::Cpe(0),
                    Event::FaultInjected {
                        kind: "dma_error",
                        id: token,
                    },
                );
                return None;
            }
        }
        let mut dur = dur.scale(1.0 / self.shard.speed);
        if let Some(noise) = &mut self.shard.noise {
            dur = dur.scale(noise.draw());
        }
        let end = begin + dur;
        self.shard.cg.cpe_busy_until = self.shard.cg.cpe_busy_until.max(end);
        self.shard.cg.cpe_busy_total += dur;
        self.shard.stats.kernels += 1;
        self.shard
            .queue
            .schedule_at(end, MachineEvent::KernelDone { cg, token });
        Some(end)
    }

    /// Inject a message of `bytes` from `src` (this rank) to `dst`, with
    /// the send-side work beginning no earlier than `when`. Injection
    /// serializes on the source NIC; delivery is injection end plus wire
    /// time plus latency. The delivery is parked in this shard's outbox — it
    /// reaches `dst`'s queue at the next barrier merge — and its time is
    /// returned. Delivery can never precede `now + net_latency`, which is
    /// exactly the lookahead the PDES window protocol relies on.
    ///
    /// Sends on the default endpoint lane 0; multi-endpoint senders use
    /// [`MachineCtx::net_send_ep`].
    pub fn net_send(
        &mut self,
        src: CgId,
        dst: CgId,
        bytes: u64,
        when: SimTime,
        token: u64,
    ) -> SimTime {
        self.net_send_ep(src, dst, bytes, when, token, 0)
    }

    /// [`MachineCtx::net_send`] on a specific NIC endpoint lane.
    ///
    /// Each lane is its own injection serialization point (grown on
    /// demand), so packets on different endpoints of one CG inject
    /// concurrently; packets on the *same* endpoint still serialize in
    /// send order. Wire time, latency, jitter, and the lookahead floor
    /// (`now + net_latency`) are identical across lanes — endpoints widen
    /// injection bandwidth, they never shorten a delivery.
    pub fn net_send_ep(
        &mut self,
        src: CgId,
        dst: CgId,
        bytes: u64,
        when: SimTime,
        token: u64,
        ep: u32,
    ) -> SimTime {
        assert_eq!(src, self.rank, "shard ctx may only send from its own CG");
        assert!(dst < self.n_cgs, "bad destination CG {dst}");
        let lanes = &mut self.shard.cg.nic_free_at;
        if lanes.len() <= ep as usize {
            lanes.resize(ep as usize + 1, SimTime::ZERO);
        }
        let inject_start = when.max(lanes[ep as usize]).max(self.shard.queue.now());
        let inject_dur = SimDur::from_secs_f64(bytes as f64 / (self.cfg.net_bw_gbs * 1e9));
        let inject_end = inject_start + inject_dur;
        self.shard.cg.nic_free_at[ep as usize] = inject_end;
        // Rank-level NIC jitter: a jittered source pays constant extra
        // latency on every packet it injects (models a hot/slow node).
        let jitter = self
            .faults
            .and_then(|p| p.jitter_ps(src as u32))
            .map_or(SimDur::ZERO, SimDur);
        let deliver = inject_end + self.cfg.net_latency + jitter;
        self.shard.stats.messages += 1;
        self.shard.stats.net_bytes += bytes;
        self.rec.record(
            src,
            inject_start.0,
            Lane::Wire,
            Event::MsgOnWire {
                msg: token,
                src,
                dst,
                bytes,
                deliver_ps: deliver.0,
            },
        );
        if dst == src {
            // Self-delivery stays shard-local (no barrier needed).
            self.shard
                .queue
                .schedule_at(deliver, MachineEvent::NetDeliver { dst, token });
        } else {
            self.shard.outbox.push((deliver, dst, token));
        }
        deliver
    }

    /// Schedule a wakeup timer for this CG at `at` (clamped to its clock).
    pub fn timer_at(&mut self, cg: CgId, at: SimTime, token: u64) {
        assert_eq!(cg, self.rank, "shard ctx may only arm its own timers");
        self.shard.stats.timers += 1;
        let at = at.max(self.shard.queue.now());
        self.shard
            .queue
            .schedule_at(at, MachineEvent::Timer { cg, token });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(n: usize) -> Machine {
        Machine::new(MachineConfig::sw26010(), n)
    }

    #[test]
    fn kernels_may_overlap_on_group_slots() {
        let mut m = machine(1);
        let e1 = m.offload_kernel(0, SimTime(0), SimDur(100), 1);
        assert_eq!(e1, SimTime(100));
        // A second kernel (another CPE group) runs concurrently.
        let e2 = m.offload_kernel(0, SimTime(10), SimDur(50), 2);
        assert_eq!(e2, SimTime(60));
        assert_eq!(m.cg(0).cpe_busy_total(), SimDur(150));
        assert_eq!(m.cg(0).cpe_busy_until(), SimTime(100));
        let (t1, ev1) = m.pop().unwrap();
        assert_eq!(
            (t1, ev1),
            (SimTime(60), MachineEvent::KernelDone { cg: 0, token: 2 })
        );
        let (t2, _) = m.pop().unwrap();
        assert_eq!(t2, SimTime(100));
    }

    #[test]
    fn messages_serialize_on_source_nic() {
        let mut m = machine(2);
        let bytes = 8_000_000_000; // 1 s of injection at 8 GB/s
        let d1 = m.net_send(0, 1, bytes, SimTime(0), 1);
        let d2 = m.net_send(0, 1, bytes, SimTime(0), 2);
        // Second injection starts after the first finishes.
        assert_eq!(d2.since(d1), SimDur::from_secs_f64(1.0));
        assert_eq!(m.stats().messages, 2);
        assert_eq!(m.stats().net_bytes, 2 * bytes);
    }

    #[test]
    fn delivery_includes_latency() {
        let mut m = machine(2);
        let d = m.net_send(0, 1, 0, SimTime(0), 7);
        assert_eq!(d, SimTime::ZERO + m.cfg().net_latency);
        let (t, ev) = m.pop().unwrap();
        assert_eq!(t, d);
        assert_eq!(ev, MachineEvent::NetDeliver { dst: 1, token: 7 });
    }

    #[test]
    fn different_nics_do_not_contend() {
        let mut m = machine(3);
        let bytes = 8_000_000_000;
        let d1 = m.net_send(0, 2, bytes, SimTime(0), 1);
        let d2 = m.net_send(1, 2, bytes, SimTime(0), 2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut m = machine(1);
        m.timer_at(0, SimTime(50), 5);
        m.timer_at(0, SimTime(25), 4);
        let (t, ev) = m.pop().unwrap();
        assert_eq!(t, SimTime(25));
        assert_eq!(ev, MachineEvent::Timer { cg: 0, token: 4 });
        assert_eq!(m.stats().timers, 2);
    }

    #[test]
    fn slow_cg_stretches_kernels() {
        let mut m = machine(2);
        m.set_cg_speed(1, 0.5);
        let e0 = m.offload_kernel(0, SimTime(0), SimDur(100), 1);
        let e1 = m.offload_kernel(1, SimTime(0), SimDur(100), 2);
        assert_eq!(e0, SimTime(100));
        assert_eq!(e1, SimTime(200), "half-speed CG takes twice as long");
    }

    #[test]
    fn noise_is_seeded_and_bounded() {
        let run = |seed: u64| {
            let mut m = machine(1);
            m.set_noise(0.10, seed);
            (0..20)
                .map(|i| m.offload_kernel(0, SimTime(0), SimDur(1000), i).0)
                .collect::<Vec<u64>>()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b, "same seed, same stretch");
        assert_ne!(a, run(6), "different seed, different stretch");
        assert!(a.iter().all(|&e| (1000..=1100).contains(&e)), "{a:?}");
        assert!(a.iter().any(|&e| e != 1000), "noise must do something");
    }

    #[test]
    fn per_cg_noise_streams_are_independent() {
        // Two CGs running identical kernels draw different (but seeded)
        // stretches, and the draws do not depend on interleaving order.
        let mut m = machine(2);
        m.set_noise(0.10, 42);
        let a0 = m.offload_kernel(0, SimTime(0), SimDur(1000), 1);
        let b0 = m.offload_kernel(1, SimTime(0), SimDur(1000), 2);
        let mut m2 = machine(2);
        m2.set_noise(0.10, 42);
        // Reverse the offload order: per-CG streams must be unaffected.
        let b1 = m2.offload_kernel(1, SimTime(0), SimDur(1000), 2);
        let a1 = m2.offload_kernel(0, SimTime(0), SimDur(1000), 1);
        assert_eq!(a0, a1, "CG 0 stream independent of interleaving");
        assert_eq!(b0, b1, "CG 1 stream independent of interleaving");
        assert_ne!(a0, b0, "distinct CGs draw from distinct streams");
    }

    #[test]
    fn recorder_is_off_by_default_then_captures_wire_events() {
        let mut m = machine(2);
        m.offload_kernel(0, SimTime(0), SimDur(10), 1);
        assert!(
            m.recorder().snapshot().iter().all(|b| b.is_empty()),
            "off by default"
        );
        m.set_recorder(Recorder::new(2));
        m.net_send(0, 1, 64, SimTime(0), 3);
        let sends = m.recorder().snapshot()[0]
            .iter()
            .filter(|r| matches!(r.event, Event::MsgOnWire { .. }))
            .count();
        assert_eq!(sends, 1);
    }

    #[test]
    fn dma_fault_suppresses_kernel_completion() {
        use sw_resilience::FaultConfig;
        let mut m = machine(1);
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            dma_error_ppm: 999_999,
            guarantee_recovery: false,
            ..FaultConfig::none(3)
        }));
        m.set_fault_plan(plan.clone());
        m.set_recorder(Recorder::new(1));
        let key = OffloadKey {
            rank: 0,
            patch: 0,
            stage: 0,
            step: 0,
            attempt: 0,
        };
        let end = m.offload_kernel_keyed(0, SimTime(0), SimDur(100), 1, Some(&key));
        assert_eq!(end, None, "DMA fault: kernel never runs");
        assert!(m.pop().is_none(), "no KernelDone scheduled");
        assert_eq!(plan.stats.snapshot().injected_dma_error, 1);
        let injected = m.recorder().snapshot()[0]
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    Event::FaultInjected {
                        kind: "dma_error",
                        ..
                    }
                )
            })
            .count();
        assert_eq!(injected, 1);
        // Unkeyed offloads are exempt even with a hostile plan installed.
        let end = m.offload_kernel(0, SimTime(0), SimDur(100), 2);
        assert_eq!(end, SimTime(100));
    }

    #[test]
    fn jittered_rank_pays_constant_extra_latency() {
        use sw_resilience::FaultConfig;
        let mut m = machine(2);
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            rank_jitter_ppm: 999_999, // every rank jittered
            jitter_ps: 777,
            ..FaultConfig::none(1)
        }));
        m.set_fault_plan(plan);
        let d = m.net_send(0, 1, 0, SimTime(0), 7);
        assert_eq!(d, SimTime::ZERO + m.cfg().net_latency + SimDur(777));
    }

    #[test]
    fn recorder_captures_wire_events_typed() {
        use sw_telemetry::Event;
        let mut m = machine(2);
        m.set_recorder(Recorder::new(2));
        let deliver = m.net_send(0, 1, 64, SimTime(0), 3);
        let snap = m.recorder().snapshot();
        assert_eq!(snap[0].len(), 1, "wire event lands on the source rank");
        match &snap[0][0].event {
            Event::MsgOnWire {
                msg,
                src,
                dst,
                bytes,
                deliver_ps,
            } => {
                assert_eq!((*msg, *src, *dst, *bytes), (3, 0, 1, 64));
                assert_eq!(*deliver_ps, deliver.0);
            }
            other => panic!("expected MsgOnWire, got {other:?}"),
        }
    }

    #[test]
    fn flop_counters_aggregate() {
        use crate::flops::FlopCategory;
        let mut m = machine(2);
        m.cg_mut(0).counters.add(FlopCategory::Exp, 100);
        m.cg_mut(1).counters.add(FlopCategory::Exp, 50);
        m.cg_mut(1).counters.add(FlopCategory::Stencil, 25);
        assert_eq!(m.total_flops().total(), 175);
    }

    #[test]
    #[should_panic(expected = "bad destination")]
    fn rejects_bad_destination() {
        let mut m = machine(2);
        m.net_send(0, 5, 10, SimTime(0), 0);
    }

    #[test]
    fn outbox_parks_cross_shard_deliveries_until_merge() {
        let mut m = machine(2);
        let deliver = m.ctx(0).net_send(0, 1, 64, SimTime(0), 9);
        assert!(m.has_outbound(), "ctx sends park in the outbox");
        assert_eq!(m.shard_peek(1), None, "not yet visible to the target");
        assert_eq!(m.peek_time(), Some(deliver), "but visible to the facade");
        m.merge_outboxes(None).unwrap();
        assert_eq!(m.shard_peek(1), Some(deliver));
        assert!(!m.has_outbound());
    }

    #[test]
    fn merge_rejects_deliveries_inside_the_window() {
        let mut m = machine(2);
        let deliver = m.ctx(0).net_send(0, 1, 0, SimTime(0), 9);
        // Claim a window that extends past the delivery: conservative
        // contract broken, the merge must refuse with a typed violation
        // carrying the channel diagnostics.
        let end = deliver + SimDur(1);
        let v = m.merge_outboxes(Some(end)).unwrap_err();
        assert_eq!((v.src, v.dst, v.token), (0, 1, 9));
        assert_eq!((v.at, v.window_end), (deliver, end));
        assert!(v.to_string().contains("lookahead violation"));
        // A floor at the delivery instant is legal: `at >= end` holds.
        let mut ok = machine(2);
        let d = ok.ctx(0).net_send(0, 1, 0, SimTime(0), 9);
        ok.merge_outboxes(Some(d)).unwrap();
        assert_eq!(ok.shard_peek(1), Some(d));
    }

    #[test]
    fn endpoint_lanes_inject_concurrently_but_serialize_within_a_lane() {
        let mut m = machine(2);
        let bytes = 8_000_000_000; // 1 s of injection at 8 GB/s
        let d0 = m.ctx(0).net_send_ep(0, 1, bytes, SimTime(0), 1, 0);
        let d1 = m.ctx(0).net_send_ep(0, 1, bytes, SimTime(0), 2, 1);
        assert_eq!(d0, d1, "distinct lanes of one NIC do not contend");
        let d2 = m.ctx(0).net_send_ep(0, 1, bytes, SimTime(0), 3, 1);
        assert_eq!(
            d2.since(d1),
            SimDur::from_secs_f64(1.0),
            "same lane still serializes in send order"
        );
        // net_send is exactly lane 0.
        let d3 = m.ctx(0).net_send(0, 1, bytes, SimTime(0), 4);
        assert_eq!(d3.since(d0), SimDur::from_secs_f64(1.0));
    }

    #[test]
    fn merge_violation_applies_nothing() {
        // All-or-nothing: a floor violation must leave every outbox intact
        // and every destination queue untouched — including deliveries from
        // sources *before* the offending one in merge order.
        let mut m = machine(3);
        let ok = m.ctx(0).net_send(0, 2, 0, SimTime(0), 1);
        m.ctx(1).net_send(1, 2, 0, SimTime(0), 2);
        let end = ok + SimDur(1);
        assert!(m.merge_outboxes(Some(end)).is_err());
        assert!(m.has_outbound(), "outboxes survive a refused merge");
        assert_eq!(m.shard_peek(2), None, "no delivery was applied");
    }

    #[test]
    fn merge_log_captures_window_edges() {
        let mut m = machine(3);
        m.set_merge_log(true);
        m.ctx(0).net_send(0, 1, 64, SimTime(0), 1);
        m.ctx(2).net_send(2, 1, 64, SimTime(0), 2);
        m.merge_outboxes(None).unwrap();
        assert_eq!(m.take_merge_log(), vec![(0, 1), (2, 1)]);
        assert!(m.take_merge_log().is_empty(), "take drains the log");
        m.set_merge_log(false);
        m.ctx(0).net_send(0, 2, 64, SimTime(0), 3);
        m.merge_outboxes(None).unwrap();
        assert!(m.take_merge_log().is_empty(), "logging off records nothing");
    }

    #[test]
    fn ctx_guards_foreign_cg_access() {
        let mut m = machine(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.ctx(0).cg_mut(1);
        }));
        assert!(r.is_err(), "ctx must not reach into another shard's CG");
    }
}
