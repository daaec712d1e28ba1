//! Typed telemetry events and the lanes they are recorded on.
//!
//! Every event carries the *virtual* time it happened at (integer
//! picoseconds on the simulated SW26010 clock, i.e. `sw_sim::SimTime.0` —
//! this crate is a dependency leaf and deliberately stores the raw `u64`),
//! plus an optional wall-clock offset when the recorder was created with
//! [`crate::Recorder::with_wall_clock`] (functional mode, where host time is
//! meaningful).

/// Execution lane an event belongs to, within one rank (one core group).
///
/// Perfetto track mapping: `Mpe` → tid 0, `Cpe(k)` → tid `1 + k`,
/// `Progress` → tid [`Lane::PROGRESS_TID`], `Wire` → tid
/// [`Lane::WIRE_TID`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// The management processing element (the MPE scheduler thread).
    Mpe,
    /// One CPE kernel slot (0-based slot index, not a physical CPE id:
    /// a slot drives a whole 64-CPE spawn in this runtime's model).
    Cpe(u32),
    /// The dedicated MPI progress lane (modeled comm thread): protocol
    /// actions taken at wire-delivery time instead of inside an MPE
    /// `progress` call. Only populated when the progress-lane machine
    /// variant is enabled.
    Progress,
    /// The synthetic "wire" track carrying in-flight network messages.
    Wire,
}

impl Lane {
    /// Perfetto thread id reserved for the dedicated progress lane.
    pub const PROGRESS_TID: u64 = 98;
    /// Perfetto thread id reserved for the wire track.
    pub const WIRE_TID: u64 = 99;

    /// Perfetto thread id for this lane within its rank's process.
    pub fn tid(self) -> u64 {
        match self {
            Lane::Mpe => 0,
            Lane::Cpe(k) => 1 + u64::from(k),
            Lane::Progress => Self::PROGRESS_TID,
            Lane::Wire => Self::WIRE_TID,
        }
    }

    /// Human-readable track name (Perfetto thread_name metadata); the
    /// `Display` form.
    pub fn name(self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::Mpe => f.write_str("MPE"),
            Lane::Cpe(k) => write!(f, "CPE slot {k}"),
            Lane::Progress => f.write_str("progress"),
            Lane::Wire => f.write_str("wire"),
        }
    }
}

/// A structured telemetry event.
///
/// Span-shaped pairs (`TaskStart`/`TaskEnd`, `OffloadStart`/`OffloadDone`,
/// `DmaIn`/`DmaOut`) are matched per lane in recording order; the remaining
/// variants are instants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// MPE begins preparing/executing a coarse task for `patch` at `stage`.
    TaskStart {
        /// Patch id the task operates on.
        patch: usize,
        /// Pipeline stage index.
        stage: usize,
    },
    /// MPE finished the coarse task started by the matching [`Event::TaskStart`].
    TaskEnd {
        /// Patch id the task operates on.
        patch: usize,
        /// Pipeline stage index.
        stage: usize,
    },
    /// A kernel offload was handed to this lane (CPE slot, or MPE when the
    /// variant computes on the host).
    OffloadStart {
        /// Patch id the kernel computes.
        patch: usize,
        /// Kernel token (machine event token; 0 for MPE-host compute).
        token: u64,
    },
    /// The offload started by the matching [`Event::OffloadStart`] completed.
    OffloadDone {
        /// Patch id the kernel computes.
        patch: usize,
        /// Kernel token (machine event token; 0 for MPE-host compute).
        token: u64,
    },
    /// DMA of the kernel working set into LDM begins (span start).
    DmaIn {
        /// Bytes staged into LDM.
        bytes: u64,
    },
    /// DMA of results back to main memory completes (span end).
    DmaOut {
        /// Bytes written back.
        bytes: u64,
    },
    /// An `isend` was posted on this rank.
    MsgPosted {
        /// Message id (world-unique).
        msg: u64,
        /// Destination rank.
        peer: usize,
        /// MPI tag.
        tag: u64,
        /// Payload bytes.
        bytes: u64,
        /// Whether the eager protocol applies (payload on wire immediately).
        eager: bool,
    },
    /// A message packet entered the interconnect (recorded on [`Lane::Wire`]
    /// of the *source* rank).
    MsgOnWire {
        /// Message id, or raw wire token when the packet is a protocol
        /// control packet (RTS/CTS).
        msg: u64,
        /// Source rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Bytes on the wire.
        bytes: u64,
        /// Virtual delivery time (ps) at the destination NIC.
        deliver_ps: u64,
    },
    /// A payload was matched to its `irecv` and consumed at the destination.
    MsgDelivered {
        /// Message id.
        msg: u64,
        /// Source rank the payload came from.
        peer: usize,
        /// MPI tag.
        tag: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// Rendezvous request-to-send control packet left this rank.
    RtsSent {
        /// Message id.
        msg: u64,
        /// Destination rank.
        peer: usize,
    },
    /// Rendezvous clear-to-send control packet left this rank.
    CtsSent {
        /// Message id.
        msg: u64,
        /// Source rank being cleared.
        peer: usize,
    },
    /// One call into `MpiWorld::progress` on this rank.
    ProgressCall {
        /// Protocol actions taken by this call (0 = no-op poll).
        actions: u64,
    },
    /// An eager payload was parked in a per-(destination, endpoint)
    /// aggregation staging buffer instead of going straight to the wire.
    AggStaged {
        /// Message id staged.
        msg: u64,
        /// Destination rank of the staging buffer.
        peer: usize,
        /// Endpoint the buffer (and eventually the coalesced packet) rides.
        endpoint: u32,
        /// Payload bytes added to the buffer.
        bytes: u64,
    },
    /// A staging buffer was flushed as one coalesced wire packet.
    AggFlushed {
        /// Batch id of the coalesced packet (drawn from the sender's
        /// message-id namespace).
        batch: u64,
        /// Destination rank.
        peer: usize,
        /// Endpoint the coalesced packet rides.
        endpoint: u32,
        /// Member messages coalesced into the packet.
        msgs: u64,
        /// Sum of member payload bytes (before the control-packet floor).
        bytes: u64,
        /// Flush trigger: `"bytes"` (threshold crossed at push) or
        /// `"deadline"` (oldest member aged out in `progress`).
        reason: &'static str,
    },
    /// This rank contributed its local value to the timestep reduction.
    ReduceContribute {
        /// Timestep index.
        step: usize,
    },
    /// The reduction result became visible on this rank.
    ReduceDone {
        /// Timestep index.
        step: usize,
    },
    /// This rank crossed the end-of-step barrier (its `step_end` instant).
    Barrier {
        /// Timestep index that just ended.
        step: usize,
    },
    /// The MPE went idle waiting for the machine, until `until_ps` (a timer
    /// wakeup) or an unknown future event (`u64::MAX`).
    Idle {
        /// Scheduled wakeup time in ps (`u64::MAX` when event-driven).
        until_ps: u64,
    },
    /// Untyped marker instant (tests and ad-hoc debugging; production code
    /// should use a typed variant).
    Mark {
        /// Static tag string.
        tag: &'static str,
    },
    /// The fault plan injected a fault at a shim boundary (slot death,
    /// straggler, DMA error, message drop/duplicate/delay).
    FaultInjected {
        /// Stable fault-kind name (matches a `FaultStats` counter, e.g.
        /// `"slot_death"`, `"msg_drop"`).
        kind: &'static str,
        /// Entity id the fault hit (kernel token, message id, ...).
        id: u64,
    },
    /// A detector fired: an offload deadline or a message ack timeout.
    FaultDetected {
        /// Stable fault-kind name (`"offload_timeout"`, `"msg_timeout"`).
        kind: &'static str,
        /// Entity id the detector fired for.
        id: u64,
    },
    /// A recovery action completed (retry re-executed, resend delivered,
    /// or degradation to a serial fallback).
    FaultRecovered {
        /// Stable recovery-kind name (`"offload_retry"`, `"msg_resend"`,
        /// `"serial_degrade"`).
        kind: &'static str,
        /// Entity id that recovered.
        id: u64,
    },
    /// A warehouse checkpoint was written at a step boundary.
    CheckpointWritten {
        /// Step the checkpoint covers (next step to run on restart).
        step: usize,
        /// Field-data payload bytes serialized.
        bytes: u64,
    },
    /// Execution restarted from a checkpoint.
    CheckpointRestored {
        /// Step execution resumes at.
        step: usize,
    },
}

impl Event {
    /// Short stable name for exporters and debugging.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TaskStart { .. } => "TaskStart",
            Event::TaskEnd { .. } => "TaskEnd",
            Event::OffloadStart { .. } => "OffloadStart",
            Event::OffloadDone { .. } => "OffloadDone",
            Event::DmaIn { .. } => "DmaIn",
            Event::DmaOut { .. } => "DmaOut",
            Event::MsgPosted { .. } => "MsgPosted",
            Event::MsgOnWire { .. } => "MsgOnWire",
            Event::MsgDelivered { .. } => "MsgDelivered",
            Event::RtsSent { .. } => "RtsSent",
            Event::CtsSent { .. } => "CtsSent",
            Event::ProgressCall { .. } => "ProgressCall",
            Event::AggStaged { .. } => "AggStaged",
            Event::AggFlushed { .. } => "AggFlushed",
            Event::ReduceContribute { .. } => "ReduceContribute",
            Event::ReduceDone { .. } => "ReduceDone",
            Event::Barrier { .. } => "Barrier",
            Event::Idle { .. } => "Idle",
            Event::Mark { .. } => "Mark",
            Event::FaultInjected { .. } => "FaultInjected",
            Event::FaultDetected { .. } => "FaultDetected",
            Event::FaultRecovered { .. } => "FaultRecovered",
            Event::CheckpointWritten { .. } => "CheckpointWritten",
            Event::CheckpointRestored { .. } => "CheckpointRestored",
        }
    }
}

/// One recorded event: virtual timestamp, optional wall-clock offset, lane,
/// payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Virtual time in integer picoseconds (`sw_sim::SimTime.0`).
    pub at_ps: u64,
    /// Wall-clock nanoseconds since the recorder's epoch, when wall-clock
    /// capture is enabled (functional mode); `None` otherwise.
    pub wall_ns: Option<u64>,
    /// Lane the event belongs to.
    pub lane: Lane,
    /// The event payload.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_tids_are_distinct_and_stable() {
        assert_eq!(Lane::Mpe.tid(), 0);
        assert_eq!(Lane::Cpe(0).tid(), 1);
        assert_eq!(Lane::Cpe(7).tid(), 8);
        assert_eq!(Lane::Progress.tid(), 98);
        assert_eq!(Lane::Wire.tid(), 99);
        assert_eq!(Lane::Cpe(3).name(), "CPE slot 3");
        assert_eq!(Lane::Progress.name(), "progress");
    }

    #[test]
    fn event_kind_names() {
        assert_eq!(Event::TaskStart { patch: 0, stage: 0 }.kind(), "TaskStart");
        assert_eq!(Event::Mark { tag: "x" }.kind(), "Mark");
        assert_eq!(Event::Idle { until_ps: 5 }.kind(), "Idle");
        assert_eq!(
            Event::FaultInjected {
                kind: "slot_death",
                id: 7
            }
            .kind(),
            "FaultInjected"
        );
        assert_eq!(
            Event::CheckpointWritten { step: 2, bytes: 64 }.kind(),
            "CheckpointWritten"
        );
    }
}
