//! Seeded, schedule-independent fault plans.
//!
//! Every decision in a [`FaultPlan`] is a **pure function** of
//! `(seed, stable entity key)` — never of call order, wall clock, or which
//! scheduler variant happens to ask first. Two consequences the rest of the
//! stack relies on:
//!
//! 1. the same `(seed, config)` reproduces the *same* faults across all
//!    five scheduler variants and across repeated runs, so fault sweeps are
//!    comparable and regressions are replayable from a single integer;
//! 2. asking twice is free and safe — layers may consult the plan
//!    speculatively (e.g. the MPE probing an offload it then decides to run
//!    serially) without perturbing any other decision.
//!
//! Probabilities are expressed in **ppm** (parts per million) and factors in
//! **milli** (thousandths) so [`FaultConfig`] stays all-integer: it is
//! embedded in `SchedulerOptions`, which derives `Eq`/`Hash`, and `f64`
//! would poison those derives.

use crate::stats::FaultStats;

/// One million — the denominator for all `_ppm` probability fields.
pub const PPM: u64 = 1_000_000;

/// Deterministic fault-injection configuration.
///
/// All-integer on purpose (see module docs). A zeroed config injects
/// nothing; [`FaultConfig::standard`] is the preset used by `repro faults`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Master seed; every decision hashes this with the entity key.
    pub seed: u64,
    /// Probability (ppm) that a CPE slot dies for one offload attempt.
    pub slot_death_ppm: u32,
    /// Probability (ppm) that an offload straggles (runs slower).
    pub straggler_ppm: u32,
    /// Straggler slowdown factor in milli (e.g. `4000` = 4x slower).
    pub straggler_factor_milli: u32,
    /// Probability (ppm) that an offload's DMA transfer errors out.
    pub dma_error_ppm: u32,
    /// Probability (ppm) that a message payload is dropped on the wire.
    pub msg_drop_ppm: u32,
    /// Probability (ppm) that a message payload is duplicated on the wire.
    pub msg_dup_ppm: u32,
    /// Probability (ppm) that a message payload is delayed on the wire.
    pub msg_delay_ppm: u32,
    /// Delay applied to delayed messages, in picoseconds.
    pub delay_ps: u64,
    /// Probability (ppm) that a rank's sends see constant extra jitter.
    pub rank_jitter_ppm: u32,
    /// Extra latency for jittered ranks, in picoseconds.
    pub jitter_ps: u64,
    /// Maximum attempts (first try + retries) per offload or message.
    pub max_attempts: u32,
    /// Base of the exponential retry backoff, in picoseconds.
    pub backoff_base_ps: u64,
    /// Offload deadline factor in milli over the expected duration
    /// (e.g. `3000` = declare lost after 3x the expected runtime).
    pub timeout_factor_milli: u32,
    /// Constant slack added to every offload deadline, in picoseconds.
    pub timeout_slack_ps: u64,
    /// Ack timeout for reliable messages, in picoseconds.
    pub msg_timeout_ps: u64,
    /// When `true`, drop/death faults are suppressed on the final attempt
    /// so bounded retries always succeed — the "recoverable" regime the
    /// byte-identity proptests assert over.
    pub guarantee_recovery: bool,
}

impl FaultConfig {
    /// A config that injects nothing (but still runs the recovery
    /// machinery, ack layer, and deadline bookkeeping).
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            slot_death_ppm: 0,
            straggler_ppm: 0,
            straggler_factor_milli: 1000,
            dma_error_ppm: 0,
            msg_drop_ppm: 0,
            msg_dup_ppm: 0,
            msg_delay_ppm: 0,
            delay_ps: 0,
            rank_jitter_ppm: 0,
            jitter_ps: 0,
            max_attempts: 4,
            backoff_base_ps: 200_000, // 200 ns
            timeout_factor_milli: 3000,
            timeout_slack_ps: 2_000_000, // 2 us
            msg_timeout_ps: 30_000_000,  // 30 us
            guarantee_recovery: true,
        }
    }

    /// The standard recoverable-fault preset used by `repro faults`:
    /// a few percent of everything, recovery guaranteed within
    /// `max_attempts`.
    pub fn standard(seed: u64) -> Self {
        FaultConfig {
            slot_death_ppm: 30_000, // 3 %
            straggler_ppm: 30_000,  // 3 %
            straggler_factor_milli: 5000,
            dma_error_ppm: 15_000,    // 1.5 %
            msg_drop_ppm: 30_000,     // 3 %
            msg_dup_ppm: 20_000,      // 2 %
            msg_delay_ppm: 50_000,    // 5 %
            delay_ps: 5_000_000,      // 5 us
            rank_jitter_ppm: 250_000, // 25 % of ranks
            jitter_ps: 500_000,       // 0.5 us
            ..FaultConfig::none(seed)
        }
    }

    /// A hostile preset with `guarantee_recovery` off: some faults exhaust
    /// their retry budget and must degrade gracefully instead.
    pub fn harsh(seed: u64) -> Self {
        FaultConfig {
            slot_death_ppm: 120_000,
            dma_error_ppm: 60_000,
            msg_drop_ppm: 120_000,
            max_attempts: 2,
            guarantee_recovery: false,
            ..FaultConfig::standard(seed)
        }
    }

    /// Whether any injection probability is non-zero.
    pub fn injects_anything(&self) -> bool {
        self.slot_death_ppm != 0
            || self.straggler_ppm != 0
            || self.dma_error_ppm != 0
            || self.msg_drop_ppm != 0
            || self.msg_dup_ppm != 0
            || self.msg_delay_ppm != 0
            || self.rank_jitter_ppm != 0
    }
}

/// The named fault presets, mildest first: what a job line, a CLI flag or a
/// torture case asks for by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPreset {
    /// No fault plane at all.
    NoFaults,
    /// [`FaultConfig::standard`]: recoverable, bit identity must survive.
    Standard,
    /// [`FaultConfig::harsh`]: recovery not guaranteed.
    Harsh,
}

impl FaultPreset {
    /// Every preset, mildest first.
    pub const ALL: [FaultPreset; 3] = [
        FaultPreset::NoFaults,
        FaultPreset::Standard,
        FaultPreset::Harsh,
    ];

    /// The preset's name: `none`, `standard` or `harsh`.
    pub fn name(self) -> &'static str {
        match self {
            FaultPreset::NoFaults => "none",
            FaultPreset::Standard => "standard",
            FaultPreset::Harsh => "harsh",
        }
    }

    /// Inverse of [`FaultPreset::name`].
    pub fn from_name(name: &str) -> Option<FaultPreset> {
        FaultPreset::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The fault config this preset installs for `seed`; `None` for
    /// [`FaultPreset::NoFaults`].
    pub fn config(self, seed: u64) -> Option<FaultConfig> {
        match self {
            FaultPreset::NoFaults => None,
            FaultPreset::Standard => Some(FaultConfig::standard(seed)),
            FaultPreset::Harsh => Some(FaultConfig::harsh(seed)),
        }
    }
}

/// Stable identity of one offload **attempt**: the fault decision is per
/// attempt, so a retry of the same task rolls fresh dice (and, under
/// [`FaultConfig::guarantee_recovery`], is forced clean on the last try).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OffloadKey {
    /// Owning rank.
    pub rank: u32,
    /// Patch id the kernel runs over.
    pub patch: u64,
    /// Stage index within the step.
    pub stage: u32,
    /// Timestep number.
    pub step: u32,
    /// Attempt number, starting at 0.
    pub attempt: u32,
}

/// Stable identity of one message transmission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MsgKey {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// MPI tag.
    pub tag: u64,
    /// Transmission attempt, starting at 0.
    pub attempt: u32,
}

/// Fault verdict for a CPE slot executing one offload attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotFault {
    /// The slot dies silently: the kernel never completes and no
    /// completion flag is ever set. Detected only by deadline.
    Death,
    /// The slot straggles: the kernel completes, but slower by
    /// `factor_milli / 1000`.
    Straggler {
        /// Slowdown factor in milli (`5000` = 5x).
        factor_milli: u32,
    },
}

/// Fault verdict for one message transmission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgFault {
    /// The payload is lost on the wire; only the sender's resend timer
    /// can recover it.
    Drop,
    /// The payload is delivered twice; the receiver must suppress the
    /// second copy.
    Duplicate,
    /// The payload arrives late by the given number of picoseconds.
    Delay {
        /// Extra wire latency in picoseconds.
        extra_ps: u64,
    },
}

/// SplitMix64 finalizer — the same mixer `sw-sim`'s `KernelNoise` uses.
/// Copied (10 lines) rather than imported: this crate is a dependency leaf.
/// Public so downstream harnesses (e.g. the bench torture campaign) reuse
/// the exact keying discipline instead of growing a second mixer.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold a sequence of words into one well-mixed u64 (domain-separated
/// stateless keying: callers hash a distinct discriminant word first).
#[inline]
pub fn fold(words: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &w in words {
        acc = splitmix64(acc ^ splitmix64(w));
    }
    acc
}

// Domain-separation discriminants: each decision family hashes a distinct
// constant so e.g. the drop and duplicate dice for the same MsgKey are
// independent.
const D_SLOT_DEATH: u64 = 0x51;
const D_STRAGGLER: u64 = 0x52;
const D_DMA: u64 = 0x53;
const D_MSG_DROP: u64 = 0x61;
const D_MSG_DUP: u64 = 0x62;
const D_MSG_DELAY: u64 = 0x63;
const D_JITTER: u64 = 0x71;

/// A seeded fault plan plus the shared [`FaultStats`] every layer
/// increments. Cheap to share behind an `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    /// Shared atomic fault counters (injected / detected / recovered).
    pub stats: FaultStats,
}

impl FaultPlan {
    /// Build a plan from a config.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            stats: FaultStats::new(),
        }
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    #[inline]
    fn roll(&self, domain: u64, words: &[u64], ppm: u32) -> bool {
        if ppm == 0 {
            return false;
        }
        let mut all = Vec::with_capacity(words.len() + 2);
        all.push(self.cfg.seed);
        all.push(domain);
        all.extend_from_slice(words);
        fold(&all) % PPM < u64::from(ppm)
    }

    /// Is this the last allowed attempt (where `guarantee_recovery`
    /// forces a clean roll for otherwise-fatal faults)?
    #[inline]
    fn last_attempt(&self, attempt: u32) -> bool {
        self.cfg.guarantee_recovery && attempt + 1 >= self.cfg.max_attempts
    }

    /// Fault verdict for one offload attempt on a CPE slot.
    ///
    /// Death is suppressed on the final attempt under
    /// [`FaultConfig::guarantee_recovery`]; stragglers are never fatal so
    /// they are allowed on any attempt.
    pub fn slot_fault(&self, k: &OffloadKey) -> Option<SlotFault> {
        let words = [
            u64::from(k.rank),
            k.patch,
            u64::from(k.stage),
            u64::from(k.step),
            u64::from(k.attempt),
        ];
        if !self.last_attempt(k.attempt) && self.roll(D_SLOT_DEATH, &words, self.cfg.slot_death_ppm)
        {
            return Some(SlotFault::Death);
        }
        if self.roll(D_STRAGGLER, &words, self.cfg.straggler_ppm) {
            return Some(SlotFault::Straggler {
                factor_milli: self.cfg.straggler_factor_milli.max(1000),
            });
        }
        None
    }

    /// Whether the DMA transfer for this offload attempt errors out
    /// (kernel never runs; detected by deadline like a slot death).
    pub fn dma_fault(&self, k: &OffloadKey) -> bool {
        if self.last_attempt(k.attempt) {
            return false;
        }
        let words = [
            u64::from(k.rank),
            k.patch,
            u64::from(k.stage),
            u64::from(k.step),
            u64::from(k.attempt),
        ];
        self.roll(D_DMA, &words, self.cfg.dma_error_ppm)
    }

    /// Fault verdict for one message transmission attempt. Drop wins over
    /// duplicate wins over delay when several dice come up.
    pub fn msg_fault(&self, k: &MsgKey) -> Option<MsgFault> {
        let words = [
            u64::from(k.src),
            u64::from(k.dst),
            k.tag,
            u64::from(k.attempt),
        ];
        if !self.last_attempt(k.attempt) && self.roll(D_MSG_DROP, &words, self.cfg.msg_drop_ppm) {
            return Some(MsgFault::Drop);
        }
        if self.roll(D_MSG_DUP, &words, self.cfg.msg_dup_ppm) {
            return Some(MsgFault::Duplicate);
        }
        if self.roll(D_MSG_DELAY, &words, self.cfg.msg_delay_ppm) {
            return Some(MsgFault::Delay {
                extra_ps: self.cfg.delay_ps,
            });
        }
        None
    }

    /// Constant extra send latency for a jittered rank (`None` for healthy
    /// ranks). Rank-level, not per-message: models a slow NIC / hot node.
    pub fn jitter_ps(&self, rank: u32) -> Option<u64> {
        if self.roll(D_JITTER, &[u64::from(rank)], self.cfg.rank_jitter_ppm) {
            Some(self.cfg.jitter_ps)
        } else {
            None
        }
    }

    /// Deadline (absolute ps) by which an offload started at `start_ps`
    /// with expected duration `expected_ps` must have completed before the
    /// MPE declares it lost.
    pub fn offload_deadline(&self, start_ps: u64, expected_ps: u64) -> u64 {
        let scaled =
            expected_ps.saturating_mul(u64::from(self.cfg.timeout_factor_milli.max(1000))) / 1000;
        start_ps
            .saturating_add(scaled)
            .saturating_add(self.cfg.timeout_slack_ps)
    }

    /// Exponential retry backoff before attempt `attempt` (attempt 1 waits
    /// one base, attempt 2 two bases, attempt 3 four, ...).
    pub fn backoff_ps(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        self.cfg.backoff_base_ps.saturating_mul(1u64 << shift)
    }

    /// Maximum attempts per offload / message from the config.
    pub fn max_attempts(&self) -> u32 {
        self.cfg.max_attempts.max(1)
    }

    /// Ack timeout for reliable messages from the config.
    pub fn msg_timeout_ps(&self) -> u64 {
        self.cfg.msg_timeout_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_order_free() {
        let p = FaultPlan::new(FaultConfig::standard(42));
        let q = FaultPlan::new(FaultConfig::standard(42));
        let keys: Vec<OffloadKey> = (0..200)
            .map(|i| OffloadKey {
                rank: i % 4,
                patch: u64::from(i / 4),
                stage: i % 3,
                step: i % 7,
                attempt: 0,
            })
            .collect();
        // Same answers regardless of query order.
        let fwd: Vec<_> = keys.iter().map(|k| p.slot_fault(k)).collect();
        let rev: Vec<_> = keys.iter().rev().map(|k| q.slot_fault(k)).collect();
        let rev_fixed: Vec<_> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev_fixed);
        // Asking twice agrees with asking once.
        for k in &keys {
            assert_eq!(p.slot_fault(k), p.slot_fault(k));
            assert_eq!(p.dma_fault(k), p.dma_fault(k));
        }
    }

    #[test]
    fn preset_names_round_trip() {
        for p in FaultPreset::ALL {
            assert_eq!(FaultPreset::from_name(p.name()), Some(p));
        }
        assert_eq!(FaultPreset::from_name("Harsh"), None);
        assert_eq!(FaultPreset::NoFaults.config(7), None);
        assert_eq!(FaultPreset::Harsh.config(7), Some(FaultConfig::harsh(7)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(FaultConfig::standard(1));
        let b = FaultPlan::new(FaultConfig::standard(2));
        let mut differs = false;
        for i in 0..2000u64 {
            let k = MsgKey {
                src: (i % 8) as u32,
                dst: ((i + 1) % 8) as u32,
                tag: i,
                attempt: 0,
            };
            if a.msg_fault(&k) != b.msg_fault(&k) {
                differs = true;
                break;
            }
        }
        assert!(differs, "seeds 1 and 2 produced identical fault streams");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::new(FaultConfig {
            msg_drop_ppm: 100_000, // 10 %
            ..FaultConfig::none(7)
        });
        let n = 20_000u64;
        let dropped = (0..n)
            .filter(|&i| {
                matches!(
                    p.msg_fault(&MsgKey {
                        src: 0,
                        dst: 1,
                        tag: i,
                        attempt: 0,
                    }),
                    Some(MsgFault::Drop)
                )
            })
            .count() as f64;
        let rate = dropped / n as f64;
        assert!((0.08..0.12).contains(&rate), "drop rate {rate} out of band");
    }

    #[test]
    fn guarantee_recovery_caps_fatal_faults() {
        let cfg = FaultConfig {
            slot_death_ppm: 999_999,
            dma_error_ppm: 999_999,
            msg_drop_ppm: 999_999,
            max_attempts: 3,
            guarantee_recovery: true,
            ..FaultConfig::none(9)
        };
        let p = FaultPlan::new(cfg);
        for i in 0..100u64 {
            let k = OffloadKey {
                rank: 0,
                patch: i,
                stage: 0,
                step: 0,
                attempt: 2, // last allowed attempt
            };
            assert_ne!(p.slot_fault(&k), Some(SlotFault::Death));
            assert!(!p.dma_fault(&k));
            let m = MsgKey {
                src: 0,
                dst: 1,
                tag: i,
                attempt: 2,
            };
            assert_ne!(p.msg_fault(&m), Some(MsgFault::Drop));
        }
    }

    #[test]
    fn no_guarantee_allows_fatal_on_last_attempt() {
        let cfg = FaultConfig {
            slot_death_ppm: 999_999,
            guarantee_recovery: false,
            max_attempts: 2,
            ..FaultConfig::none(9)
        };
        let p = FaultPlan::new(cfg);
        let fatal = (0..100u64).any(|i| {
            p.slot_fault(&OffloadKey {
                rank: 0,
                patch: i,
                stage: 0,
                step: 0,
                attempt: 1,
            }) == Some(SlotFault::Death)
        });
        assert!(fatal);
    }

    #[test]
    fn deadline_and_backoff_math() {
        let p = FaultPlan::new(FaultConfig::none(0));
        // 3x expected + 2 us slack.
        assert_eq!(
            p.offload_deadline(1_000, 10_000),
            1_000 + 30_000 + 2_000_000
        );
        assert_eq!(p.backoff_ps(1), 200_000);
        assert_eq!(p.backoff_ps(2), 400_000);
        assert_eq!(p.backoff_ps(3), 800_000);
    }

    #[test]
    fn zero_config_injects_nothing() {
        let p = FaultPlan::new(FaultConfig::none(123));
        assert!(!p.config().injects_anything());
        for i in 0..500u64 {
            let k = OffloadKey {
                rank: (i % 4) as u32,
                patch: i,
                stage: 0,
                step: 0,
                attempt: 0,
            };
            assert_eq!(p.slot_fault(&k), None);
            assert!(!p.dma_fault(&k));
            assert_eq!(
                p.msg_fault(&MsgKey {
                    src: 0,
                    dst: 1,
                    tag: i,
                    attempt: 0,
                }),
                None
            );
        }
        assert_eq!(p.jitter_ps(3), None);
    }
}
