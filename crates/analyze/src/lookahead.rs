//! Static lookahead-safety proof for the conservative-PDES engine.
//!
//! The window protocol is safe iff no cross-CG message can be delivered
//! inside the lookahead window the sender just drained — i.e. iff the
//! *minimum modeled delivery latency* of every cross-CG channel is at
//! least the configured lookahead. The machine model makes that minimum
//! computable in closed form: a packet of `b` wire bytes sent at `t`
//! delivers at `t + b / bw + latency` plus strictly non-negative terms
//! (NIC serialization backlog, seeded jitter, fault delays), so the
//! per-channel minimum is taken over the smallest packet the channel's
//! protocol can emit — the eager payload (padded to the control-packet
//! size) on the eager path, or a bare control packet (RTS/CTS/ACK) on the
//! rendezvous and reliable paths.
//!
//! [`prove_lookahead`] evaluates that bound for every channel of a
//! compiled schedule and returns a [`LookaheadProof`] artifact: one
//! [`ChannelBound`] per channel with its slack, plus error findings
//! ([`FindingKind::LookaheadUnsafe`]) for every channel the lookahead
//! over-runs. What is *proved*: the modeled network can never produce a
//! delivery inside a drained window for a safe lookahead. What is
//! *assumed*: the channel inventory is complete (the `uintah-core` bridge
//! derives it from the same `RankPlan`s the schedulers execute) and
//! latency/bandwidth/jitter match the running `MachineConfig`.

use crate::report::{Finding, FindingKind, Severity};

/// The network parameters of the proof, mirroring `sw_sim::MachineConfig`
/// and the communicator's wire constants. Kept runtime-agnostic so the
/// analyzer stays a dependency leaf.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Per-hop delivery latency in picoseconds (`machine.net_latency`).
    pub latency_ps: u64,
    /// Link bandwidth in GB/s (`machine.net_bw_gbs`).
    pub bw_gbs: f64,
    /// Eager/rendezvous threshold in bytes (`machine.eager_limit_bytes`).
    pub eager_limit_bytes: u64,
    /// Control-packet size in bytes (RTS/CTS/ACK and the eager padding
    /// floor — `sw_mpi`'s `CTRL_BYTES`).
    pub ctrl_bytes: u64,
}

impl NetModel {
    /// Minimum modeled delivery latency of a `bytes`-sized application
    /// message on this network, in picoseconds: wire time of the smallest
    /// packet its protocol emits, plus the per-hop latency. Jitter, NIC
    /// backlog, and fault delays only ever add.
    pub fn min_delivery_ps(&self, bytes: u64) -> u64 {
        let wire = if bytes <= self.eager_limit_bytes {
            // Eager: the payload goes out as one packet, padded to the
            // control size.
            bytes.max(self.ctrl_bytes)
        } else {
            // Rendezvous (and the reliable layer's acks): the smallest
            // packet on the channel is a bare control message.
            self.ctrl_bytes
        };
        self.latency_ps + self.wire_time_ps(wire)
    }

    /// Whether a `bytes`-sized application message takes the eager path on
    /// this model (payload-in-packet) rather than rendezvous (RTS first).
    pub fn is_eager(&self, bytes: u64) -> bool {
        bytes <= self.eager_limit_bytes
    }

    /// Serialization time of `bytes` on the wire, in picoseconds. Mirrors
    /// the machine model's `SimDur::from_secs_f64` rounding exactly
    /// (nearest picosecond, ties to even, strictly positive floors to
    /// 1 ps) so the proved minimum equals the modeled delivery instant.
    fn wire_time_ps(&self, bytes: u64) -> u64 {
        let ps = bytes as f64 / (self.bw_gbs * 1e9) * 1e12;
        let r = ps.round_ties_even();
        if r <= 0.0 && ps > 0.0 {
            return 1;
        }
        r as u64
    }
}

/// One cross-CG channel of the compiled schedule: a (src, dst) rank pair
/// with the payload size of its ghost messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelModel {
    /// Sending rank.
    pub src_rank: usize,
    /// Receiving rank.
    pub dst_rank: usize,
    /// Application payload bytes per message.
    pub bytes: u64,
    /// Human-readable channel label (e.g. `ghost(p3->p4, XMinus)`).
    pub label: String,
}

/// The proved bound for one channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelBound {
    /// Sending rank.
    pub src_rank: usize,
    /// Receiving rank.
    pub dst_rank: usize,
    /// Application payload bytes per message.
    pub bytes: u64,
    /// Minimum modeled delivery latency of this channel, ps.
    pub min_latency_ps: u64,
    /// `min_latency_ps - lookahead_ps`; negative means unsafe.
    pub slack_ps: i64,
    /// Channel label from the model.
    pub label: String,
}

/// The proof artifact: every channel's bound against one lookahead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookaheadProof {
    /// The lookahead the proof was evaluated against, ps.
    pub lookahead_ps: u64,
    /// Minimum over all channels (`u64::MAX` with no channels: a run
    /// without cross-CG traffic cannot violate any window).
    pub min_latency_ps: u64,
    /// Channels examined.
    pub channels: Vec<ChannelBound>,
    /// Whether every channel satisfies `min_latency >= lookahead`.
    pub safe: bool,
}

impl LookaheadProof {
    /// Channels that violate the bound (empty iff [`LookaheadProof::safe`]).
    pub fn violations(&self) -> impl Iterator<Item = &ChannelBound> {
        self.channels.iter().filter(|c| c.slack_ps < 0)
    }
}

/// Fold per-send channel models into the coalesced channels a message
/// aggregation layer actually drives.
///
/// With aggregation on, every eager-path send into a `(src, dst)` pair
/// shares that pair's staging buffers, and the smallest packet such a
/// buffer can flush is a deadline flush holding a *single* staged message:
/// the smallest member's payload, padded to the control floor by the
/// sender. Larger flushes only carry more bytes, and wire time is
/// monotone in bytes, so one folded channel with `bytes = min(member
/// bytes)` bounds every packet the coalesced channel can emit.
/// Rendezvous-path sends are never staged — their smallest packet is a
/// bare RTS either way — so they keep their per-send channels.
///
/// The fold deliberately ignores endpoint routing: endpoints partition a
/// pair's traffic across injection lanes by message tag (which varies per
/// step), and every endpoint-refined grouping has per-group minima that
/// are at least this pair-wide minimum. Proving the folded channel is
/// therefore sound for any endpoint count — endpoints widen injection
/// bandwidth, they never shorten a delivery.
///
/// Rendezvous channels come first in input order, then one folded channel
/// per `(src, dst)` pair in rank order — deterministic for a given input.
pub fn coalesce_channels(channels: &[ChannelModel], net: &NetModel) -> Vec<ChannelModel> {
    use std::collections::BTreeMap;
    let mut out = Vec::with_capacity(channels.len());
    // (src, dst) -> (smallest member bytes, member count).
    let mut pairs: BTreeMap<(usize, usize), (u64, usize)> = BTreeMap::new();
    for ch in channels {
        if net.is_eager(ch.bytes) {
            let e = pairs
                .entry((ch.src_rank, ch.dst_rank))
                .or_insert((u64::MAX, 0));
            e.0 = e.0.min(ch.bytes);
            e.1 += 1;
        } else {
            out.push(ch.clone());
        }
    }
    for ((src, dst), (bytes, members)) in pairs {
        out.push(ChannelModel {
            src_rank: src,
            dst_rank: dst,
            bytes,
            label: format!("coalesced(r{src}->r{dst}, {members} eager sends)"),
        });
    }
    out
}

/// Prove (or refute) `min_latency >= lookahead` for every channel.
///
/// Returns the proof artifact plus one [`FindingKind::LookaheadUnsafe`]
/// error finding per violated channel, each naming the channel, its
/// payload, and the exact slack — the pre-run form of the
/// `merge_outboxes` lookahead-violation error.
pub fn prove_lookahead(
    channels: &[ChannelModel],
    net: &NetModel,
    lookahead_ps: u64,
) -> (LookaheadProof, Vec<Finding>) {
    let mut bounds = Vec::with_capacity(channels.len());
    let mut findings = Vec::new();
    let mut min = u64::MAX;
    for ch in channels {
        let min_latency_ps = net.min_delivery_ps(ch.bytes);
        min = min.min(min_latency_ps);
        let slack_ps = min_latency_ps as i64 - lookahead_ps as i64;
        if slack_ps < 0 {
            findings.push(
                Finding::new(
                    FindingKind::LookaheadUnsafe,
                    Severity::Error,
                    format!(
                        "channel {} (rank {} -> rank {}, {} B) can deliver {} ps \
                         after send, {} ps inside the {} ps lookahead window",
                        ch.label,
                        ch.src_rank,
                        ch.dst_rank,
                        ch.bytes,
                        min_latency_ps,
                        -slack_ps,
                        lookahead_ps,
                    ),
                )
                .task(ch.label.clone())
                .extra("src_rank", ch.src_rank.to_string())
                .extra("dst_rank", ch.dst_rank.to_string())
                .extra("bytes", ch.bytes.to_string())
                .extra("min_latency_ps", min_latency_ps.to_string())
                .extra("slack_ps", slack_ps.to_string()),
            );
        }
        bounds.push(ChannelBound {
            src_rank: ch.src_rank,
            dst_rank: ch.dst_rank,
            bytes: ch.bytes,
            min_latency_ps,
            slack_ps,
            label: ch.label.clone(),
        });
    }
    let proof = LookaheadProof {
        lookahead_ps,
        min_latency_ps: min,
        safe: findings.is_empty(),
        channels: bounds,
    };
    (proof, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetModel {
        // The calibrated sw26010 numbers: 1 us latency, 8 GB/s, 16 KiB
        // eager limit, 64 B control packets.
        NetModel {
            latency_ps: 1_000_000,
            bw_gbs: 8.0,
            eager_limit_bytes: 16 * 1024,
            ctrl_bytes: 64,
        }
    }

    fn ch(src: usize, dst: usize, bytes: u64) -> ChannelModel {
        ChannelModel {
            src_rank: src,
            dst_rank: dst,
            bytes,
            label: format!("ghost(r{src}->r{dst})"),
        }
    }

    #[test]
    fn eager_channel_minimum_is_latency_plus_padded_wire_time() {
        // 64 B / 8 GB/s = 8 ns = 8000 ps; a 1 B eager message pads to it.
        assert_eq!(net().min_delivery_ps(1), 1_008_000);
        // 4 KiB eager payload: 4096 / 8e9 s = 512 ns.
        assert_eq!(net().min_delivery_ps(4096), 1_512_000);
    }

    #[test]
    fn rendezvous_channel_minimum_is_a_control_packet() {
        // Above the eager limit the smallest packet is the 64 B RTS.
        assert_eq!(net().min_delivery_ps(1 << 20), 1_008_000);
    }

    #[test]
    fn safe_lookahead_proves_with_positive_slack() {
        let (proof, findings) =
            prove_lookahead(&[ch(0, 1, 4096), ch(1, 0, 4096)], &net(), 1_000_000);
        assert!(proof.safe);
        assert!(findings.is_empty());
        assert_eq!(proof.min_latency_ps, 1_512_000);
        assert!(proof.channels.iter().all(|c| c.slack_ps == 512_000));
        assert_eq!(proof.violations().count(), 0);
    }

    #[test]
    fn unsafe_lookahead_yields_per_channel_findings() {
        // Lookahead 1 ps past the small channel's minimum: only that
        // channel is flagged, with exact slack.
        let (proof, findings) = prove_lookahead(&[ch(0, 1, 1), ch(1, 2, 4096)], &net(), 1_008_001);
        assert!(!proof.safe);
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!(f.kind, FindingKind::LookaheadUnsafe);
        assert_eq!(f.severity, Severity::Error);
        assert!(f.message.contains("rank 0 -> rank 1"), "{}", f.message);
        assert!(f.extra.iter().any(|(k, v)| k == "slack_ps" && v == "-1"));
        assert_eq!(proof.violations().count(), 1);
        assert_eq!(proof.min_latency_ps, 1_008_000);
    }

    #[test]
    fn no_channels_means_any_lookahead_is_safe() {
        let (proof, findings) = prove_lookahead(&[], &net(), u64::MAX);
        assert!(proof.safe);
        assert!(findings.is_empty());
        assert_eq!(proof.min_latency_ps, u64::MAX);
    }

    #[test]
    fn coalescing_folds_eager_pairs_and_keeps_rendezvous_channels() {
        let channels = [
            ch(0, 1, 4096),
            ch(0, 1, 64),
            ch(0, 1, 1 << 20), // rendezvous: above the 16 KiB eager limit
            ch(1, 0, 256),
        ];
        let folded = coalesce_channels(&channels, &net());
        // One rendezvous channel survives verbatim, then one folded channel
        // per eager (src, dst) pair in rank order.
        assert_eq!(folded.len(), 3);
        assert_eq!(folded[0], channels[2]);
        assert_eq!(
            (folded[1].src_rank, folded[1].dst_rank, folded[1].bytes),
            (0, 1, 64),
            "folded bytes must be the smallest member's payload"
        );
        assert!(
            folded[1].label.contains("2 eager sends"),
            "{}",
            folded[1].label
        );
        assert_eq!(
            (folded[2].src_rank, folded[2].dst_rank, folded[2].bytes),
            (1, 0, 256)
        );
    }

    #[test]
    fn coalesced_proof_has_the_same_global_minimum_as_the_per_send_proof() {
        // The fold takes the min member per pair and min_delivery_ps is
        // monotone in bytes, so the global minimum — the quantity the
        // window barrier enforces — is identical.
        let channels = [ch(0, 1, 4096), ch(0, 1, 64), ch(1, 2, 1 << 20)];
        let la = 1_000_000;
        let (per_send, f1) = prove_lookahead(&channels, &net(), la);
        let folded = coalesce_channels(&channels, &net());
        let (coalesced, f2) = prove_lookahead(&folded, &net(), la);
        assert_eq!(per_send.min_latency_ps, coalesced.min_latency_ps);
        assert!(per_send.safe && coalesced.safe);
        assert!(f1.is_empty() && f2.is_empty());
        // And both proofs reject the same over-wide lookahead.
        let bad = per_send.min_latency_ps + 1;
        assert!(!prove_lookahead(&channels, &net(), bad).0.safe);
        assert!(!prove_lookahead(&folded, &net(), bad).0.safe);
    }
}
