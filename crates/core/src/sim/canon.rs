//! Canonical serialization of run configurations — the identity layer of
//! the campaign service's content-addressed result cache (DESIGN.md §16).
//!
//! [`RunConfig`] gets a `Display` impl rendering a **canonical single-line
//! token stream**: every field, in a fixed order, as `key=value` tokens
//! with exactly one rendering per value. The order and the keys are one
//! table, `LINE`; each value's spelling comes from its field's type
//! (`Spelling`), written once per type: unsigned integers in canonical
//! decimal, floats as the hex of their IEEE-754 bit pattern (so `0.1` has
//! one spelling and NaN payloads survive), durations as integer
//! picoseconds, flags as `0`/`1`, `-` for `None`, count-prefixed lists,
//! percent-escaped paths (so the line never contains a space outside the
//! token separators), enums by their `name()`. The strict [`FromStr`]
//! parser walks the same table and re-renders every token it read, so it
//! accepts exactly this grammar and nothing else, which is what makes the
//! representation *canonical*: `parse(display(cfg)) == cfg` and
//! `display(parse(s)) == s` for every accepted `s`.
//!
//! [`canonical_job`] prefixes the level geometry and application name —
//! everything that determines a simulation's output — and [`fnv128`]
//! hashes the line into the 128-bit content address. The cache treats a
//! key collision between *different* canonical lines as a hard error
//! rather than a silent wrong answer; at 128 bits over campaign-sized
//! corpora the probability is negligible, but the check is what turns
//! "negligible" into "detected".

use core::fmt::{self, Write};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

use sw_athread::ExecPolicy;
use sw_math::ExpKind;
use sw_resilience::FaultConfig;
use sw_sim::SimDur;

use crate::grid::Level;
use crate::lb::LoadBalancer;
use crate::schedule::variant::{ExecMode, Variant};
use crate::sim::controller::RunConfig;

/// 128-bit FNV-1a over a byte string: the cache-key hash. Not
/// cryptographic — collision *detection* (byte comparison of the stored
/// canonical line) is the actual safety net; the hash only addresses.
pub fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Canonical geometry token of a level: `PXxPYxPZ/LXxLYxLZ`
/// (patch extent / patch layout — together they determine the grid). AMR
/// levels over a non-unit physical box append `@lo:lo:lo:hi:hi:hi` in f64
/// bit-pattern hex; the historical unit-cube rendering is unchanged, so
/// every pre-AMR cache key survives byte-for-byte.
pub fn canonical_level(level: &Level) -> String {
    let e = level.patch_extent();
    let l = level.layout();
    let mut s = format!("{}x{}x{}/{}x{}x{}", e.x, e.y, e.z, l.x, l.y, l.z);
    if !level.is_unit_domain() {
        for (i, v) in level
            .phys_lo()
            .into_iter()
            .chain(level.phys_hi())
            .enumerate()
        {
            s.push(if i == 0 { '@' } else { ':' });
            v.put(&mut s);
        }
    }
    s
}

/// The full canonical identity of one job: level geometry, application
/// name, and every [`RunConfig`] field. This line (not the config alone)
/// is what the campaign cache hashes: two jobs with equal lines are the
/// same computation by construction.
pub fn canonical_job(level: &Level, app: &str, cfg: &RunConfig) -> String {
    debug_assert!(
        !app.contains(char::is_whitespace),
        "application names must be single tokens"
    );
    format!("level={} app={} {cfg}", canonical_level(level), app)
}

/// The one spelling of a field type on the canonical line. `take` may
/// accept more than `put` produces (`010`, `+10`); the parser narrows it to
/// exactly `put`'s output by re-rendering every token it read. (`put`
/// ignores `write!`'s result: formatting into a `String` cannot fail.)
trait Spelling: Sized {
    fn put(&self, out: &mut String);
    fn take(s: &str) -> Result<Self, String>;
}

macro_rules! unsigned_spelling {
    ($($t:ty),*) => {$(
        impl Spelling for $t {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn take(s: &str) -> Result<Self, String> {
                s.parse()
                    .map_err(|_| format!("expected an unsigned integer, got `{s}`"))
            }
        }
    )*};
}
unsigned_spelling!(u32, u64, usize);

/// Enums are spelled by the `name()`/`from_name()` pair beside each type.
macro_rules! named_spelling {
    ($($t:ty),*) => {$(
        impl Spelling for $t {
            fn put(&self, out: &mut String) {
                out.push_str(self.name())
            }
            fn take(s: &str) -> Result<Self, String> {
                <$t>::from_name(s).ok_or_else(|| format!("unknown {} `{s}`", stringify!($t)))
            }
        }
    )*};
}
named_spelling!(Variant, ExpKind, ExecMode, LoadBalancer);

impl Spelling for bool {
    fn put(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' })
    }
    fn take(s: &str) -> Result<Self, String> {
        match s {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("expected 0 or 1, got `{s}`")),
        }
    }
}

/// The IEEE-754 bit pattern as 16 hex digits.
impl Spelling for f64 {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{:016x}", self.to_bits());
    }
    fn take(s: &str) -> Result<Self, String> {
        u64::from_str_radix(s, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("expected 16 hex digits of an f64 bit pattern, got `{s}`"))
    }
}

/// Integer picoseconds.
impl Spelling for SimDur {
    fn put(&self, out: &mut String) {
        self.0.put(out)
    }
    fn take(s: &str) -> Result<Self, String> {
        u64::take(s).map(SimDur)
    }
}

impl<T: Spelling> Spelling for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            None => out.push('-'),
            Some(v) => v.put(out),
        }
    }
    fn take(s: &str) -> Result<Self, String> {
        if s == "-" {
            Ok(None)
        } else {
            T::take(s).map(Some)
        }
    }
}

/// Percent-escaped: bytes outside `[A-Za-z0-9._/-]` render as `%xx`, so a
/// path is one space-free token.
impl Spelling for PathBuf {
    fn put(&self, out: &mut String) {
        for b in self.to_string_lossy().bytes() {
            match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'/' | b'-' => {
                    out.push(b as char)
                }
                _ => {
                    let _ = write!(out, "%{b:02x}");
                }
            }
        }
    }
    fn take(s: &str) -> Result<Self, String> {
        let mut out = Vec::with_capacity(s.len());
        let mut bytes = s.bytes();
        while let Some(b) = bytes.next() {
            if b != b'%' {
                out.push(b);
                continue;
            }
            let (Some(hi), Some(lo)) = (bytes.next(), bytes.next()) else {
                return Err(format!("truncated %-escape in path `{s}`"));
            };
            let escaped = std::str::from_utf8(&[hi, lo])
                .ok()
                .and_then(|hex| u8::from_str_radix(hex, 16).ok())
                .ok_or_else(|| format!("bad %-escape in path `{s}`"))?;
            out.push(escaped);
        }
        String::from_utf8(out)
            .map(PathBuf::from)
            .map_err(|_| format!("non-utf8 path `{s}`"))
    }
}

/// `serial` or `par<threads>`.
impl Spelling for ExecPolicy {
    fn put(&self, out: &mut String) {
        match self {
            ExecPolicy::Serial => out.push_str("serial"),
            ExecPolicy::Parallel { threads } => {
                out.push_str("par");
                threads.put(out)
            }
        }
    }
    fn take(s: &str) -> Result<Self, String> {
        if s == "serial" {
            return Ok(ExecPolicy::Serial);
        }
        let threads = s
            .strip_prefix("par")
            .ok_or_else(|| format!("unknown exec policy `{s}`"))?;
        usize::take(threads).map(|threads| ExecPolicy::Parallel { threads })
    }
}

/// A count-prefixed list: `n` then `{sep}{item}` per item. The count keeps
/// `Some(vec![])` and `Some(vec![vec![]])` apart.
fn put_list<T>(items: &[T], sep: char, out: &mut String, put: impl Fn(&T, &mut String)) {
    items.len().put(out);
    for item in items {
        out.push(sep);
        put(item, out);
    }
}

fn take_list<T>(
    s: &str,
    sep: char,
    take: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut parts = s.split(sep);
    let n = usize::take(parts.next().unwrap_or_default())?;
    let items = parts.map(take).collect::<Result<Vec<T>, _>>()?;
    if items.len() != n {
        return Err(format!(
            "list declares {n} entries but carries {}",
            items.len()
        ));
    }
    Ok(items)
}

/// `cgs`: `n:speed:speed…`.
impl Spelling for Vec<f64> {
    fn put(&self, out: &mut String) {
        put_list(self, ':', out, f64::put)
    }
    fn take(s: &str) -> Result<Self, String> {
        take_list(s, ':', f64::take)
    }
}

/// `assign`: `n:rank:rank…`, one rank per patch.
impl Spelling for Arc<Vec<usize>> {
    fn put(&self, out: &mut String) {
        put_list(self, ':', out, usize::put)
    }
    fn take(s: &str) -> Result<Self, String> {
        take_list(s, ':', usize::take).map(Arc::new)
    }
}

/// `order`: `n;k,rank,rank…;k,rank…`, one count-prefixed window per `;`.
impl Spelling for Arc<Vec<Vec<usize>>> {
    fn put(&self, out: &mut String) {
        put_list(self, ';', out, |w, out| put_list(w, ',', out, usize::put))
    }
    fn take(s: &str) -> Result<Self, String> {
        take_list(s, ';', |w| take_list(w, ',', usize::take)).map(Arc::new)
    }
}

/// One token of a packed record: its key and the field it spells.
struct Token<C> {
    key: &'static str,
    put: fn(&C, &mut String),
    set: fn(&mut C, &str) -> Result<(), String>,
}

/// `tok!("key" => field.path)`: a `Token` spelling `field.path` by its
/// type's [`Spelling`].
macro_rules! tok {
    ($key:literal => $($field:ident).+) => {
        Token {
            key: $key,
            put: |c, out| c.$($field).+.put(out),
            set: |c, s| Spelling::take(s).map(|v| c.$($field).+ = v),
        }
    };
}

/// The fault config packs its 17 fields `:`-separated, in this order.
const FAULT_FIELDS: [Token<FaultConfig>; 17] = [
    tok!("seed" => seed),
    tok!("slot_death_ppm" => slot_death_ppm),
    tok!("straggler_ppm" => straggler_ppm),
    tok!("straggler_factor_milli" => straggler_factor_milli),
    tok!("dma_error_ppm" => dma_error_ppm),
    tok!("msg_drop_ppm" => msg_drop_ppm),
    tok!("msg_dup_ppm" => msg_dup_ppm),
    tok!("msg_delay_ppm" => msg_delay_ppm),
    tok!("delay_ps" => delay_ps),
    tok!("rank_jitter_ppm" => rank_jitter_ppm),
    tok!("jitter_ps" => jitter_ps),
    tok!("max_attempts" => max_attempts),
    tok!("backoff_base_ps" => backoff_base_ps),
    tok!("timeout_factor_milli" => timeout_factor_milli),
    tok!("timeout_slack_ps" => timeout_slack_ps),
    tok!("msg_timeout_ps" => msg_timeout_ps),
    tok!("guarantee_recovery" => guarantee_recovery),
];

impl Spelling for FaultConfig {
    fn put(&self, out: &mut String) {
        for (i, t) in FAULT_FIELDS.iter().enumerate() {
            if i > 0 {
                out.push(':');
            }
            (t.put)(self, out);
        }
    }
    fn take(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != FAULT_FIELDS.len() {
            return Err(format!(
                "fault config must pack {} fields, got {}",
                FAULT_FIELDS.len(),
                parts.len()
            ));
        }
        let mut fc = FaultConfig::none(0);
        for (part, t) in parts.into_iter().zip(&FAULT_FIELDS) {
            (t.set)(&mut fc, part).map_err(|e| format!("{}: {e}", t.key))?;
        }
        Ok(fc)
    }
}

/// The canonical line: one `key=value` token per entry, in this order.
/// A new `RunConfig` field is one more entry. `every_field_perturbs_the_line`
/// destructures the config exhaustively, so it does not compile until the
/// field gets an edit there, and that edit fails until the field has an entry.
const LINE: [Token<RunConfig>; 53] = [
    // Run shape. `v` spells the scheduler mode and SIMD flag (and resets
    // the exp library to fast); `exp`, right after it, spells the library.
    tok!("v" => variant),
    tok!("exp" => variant.exp),
    tok!("exec" => exec),
    tok!("steps" => steps),
    tok!("ranks" => n_ranks),
    tok!("lb" => lb),
    // Machine.
    tok!("mc" => machine.cpes_per_cg),
    tok!("mldm" => machine.ldm_bytes),
    tok!("mmp" => machine.mpe_peak_gflops),
    tok!("mcp" => machine.cpe_peak_gflops),
    tok!("mcs" => machine.cpe_scalar_gflops),
    tok!("mcv" => machine.cpe_simd_gflops),
    tok!("mme" => machine.mpe_eff_gflops),
    tok!("mstall" => machine.accurate_exp_stall),
    tok!("mbw" => machine.mem_bw_gbs),
    tok!("mdma" => machine.dma_cpe_peak_gbs),
    tok!("mdl" => machine.dma_latency),
    tok!("mcopy" => machine.mpe_copy_gbs),
    tok!("mnbw" => machine.net_bw_gbs),
    tok!("mnlat" => machine.net_latency),
    tok!("meager" => machine.eager_limit_bytes),
    tok!("mmpi" => machine.mpi_call_overhead),
    tok!("mtask" => machine.mpe_task_overhead),
    tok!("mcell" => machine.mpe_task_per_cell),
    tok!("mspawn" => machine.offload_spawn),
    tok!("mpoll" => machine.flag_poll_interval),
    tok!("mspin" => machine.sync_spin_slowdown),
    // Scheduler options.
    tok!("og" => options.cpe_groups),
    tok!("odb" => options.double_buffer),
    tok!("opt" => options.packed_tiles),
    tok!("oep" => options.exec_policy),
    tok!("ov" => options.verify),
    tok!("otl" => options.telemetry),
    tok!("of" => options.faults),
    // Rebalancing, noise, heterogeneity, checkpoints, engine, AMR knobs.
    tok!("rebal" => rebalance_every),
    tok!("noise" => noise_frac),
    tok!("nseed" => noise_seed),
    tok!("cgs" => cg_speeds),
    tok!("ckpt" => ckpt_every),
    tok!("ckptdir" => ckpt_dir),
    tok!("pdes" => pdes),
    tok!("threads" => threads),
    tok!("la" => pdes_lookahead_ps),
    tok!("order" => pdes_order),
    tok!("wlog" => window_log),
    tok!("assign" => assignment_override),
    tok!("dt" => dt_override),
    tok!("t0" => t0),
    // Comm layer.
    tok!("cep" => comm.endpoints),
    tok!("cagg" => comm.agg_bytes),
    tok!("cdl" => comm.agg_deadline_ps),
    tok!("cxo" => comm.eager_crossover),
    tok!("cpl" => comm.progress_lane),
];

impl fmt::Display for RunConfig {
    /// The canonical token stream (see module docs). Stable across runs
    /// and platforms: no pointers, no hash iteration order, no locale, no
    /// float formatting.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = String::with_capacity(1024);
        for (i, t) in LINE.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            line.push_str(t.key);
            line.push('=');
            (t.put)(self, &mut line);
        }
        f.write_str(&line)
    }
}

impl FromStr for RunConfig {
    type Err = String;

    /// Strict inverse of the canonical `Display`: exactly one token per
    /// `LINE` entry, each with the expected key in the expected position,
    /// each value in the unique canonical spelling. Everything else is an
    /// error naming the offending token.
    fn from_str(s: &str) -> Result<RunConfig, String> {
        let mut cfg = RunConfig::paper(Variant::HOST_SYNC, ExecMode::Model, 1);
        let mut toks = s.split(' ');
        let mut respelled = String::new();
        for (i, t) in LINE.iter().enumerate() {
            let tok = toks
                .next()
                .ok_or_else(|| format!("expected {} `key=value` tokens, got {i}", LINE.len()))?;
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("token `{tok}` is not key=value"))?;
            if key != t.key {
                return Err(format!("expected key `{}`, found `{key}`", t.key));
            }
            (t.set)(&mut cfg, value).map_err(|e| format!("`{key}`: {e}"))?;
            respelled.clear();
            (t.put)(&cfg, &mut respelled);
            if respelled != value {
                return Err(format!("non-canonical `{key}` value `{value}`"));
            }
        }
        match toks.count() {
            0 => Ok(cfg),
            extra => Err(format!(
                "expected {} `key=value` tokens, got {}",
                LINE.len(),
                LINE.len() + extra
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::iv;
    use crate::schedule::variant::{SchedulerMode, SchedulerOptions};
    use sw_sim::MachineConfig;

    fn busy_config() -> RunConfig {
        let mut cfg = RunConfig::paper(Variant::ACC_SIMD_ASYNC, ExecMode::Functional, 4);
        cfg.steps = 7;
        cfg.lb = LoadBalancer::Hilbert;
        cfg.machine = MachineConfig::test_tiny();
        cfg.options.cpe_groups = 2;
        cfg.options.double_buffer = true;
        cfg.options.exec_policy = ExecPolicy::Parallel { threads: 3 };
        cfg.options.telemetry = true;
        cfg.options.faults = Some(FaultConfig::standard(0xdead_beef));
        cfg.rebalance_every = Some(3);
        cfg.noise_frac = 0.125;
        cfg.noise_seed = 99;
        cfg.cg_speeds = Some(vec![1.0, 0.5, 1.25, 1.0]);
        cfg.ckpt_every = Some(2);
        cfg.ckpt_dir = Some(PathBuf::from("/tmp/ckpt dir with spaces"));
        cfg.pdes = true;
        cfg.threads = Some(2);
        cfg.pdes_lookahead_ps = Some(1_000_000);
        cfg.pdes_order = Some(Arc::new(vec![vec![1, 0], vec![], vec![0, 1]]));
        cfg.window_log = true;
        cfg.assignment_override = Some(Arc::new(vec![0, 1, 2, 3, 0, 1]));
        cfg.dt_override = Some(2.5e-4);
        cfg.t0 = 0.125;
        // Validation would reject aggregation + faults; the canonical line
        // is a pure serialization and must render any combination.
        cfg.comm = sw_mpi::CommConfig {
            endpoints: 4,
            agg_bytes: 512,
            agg_deadline_ps: 5_000_000,
            eager_crossover: Some(4096),
            progress_lane: true,
        };
        cfg
    }

    #[test]
    fn golden_lines_are_byte_stable() {
        // Every campaign cache key hashes these bytes: a codec change that
        // moves one character orphans every stored result.
        assert_eq!(
            busy_config().to_string(),
            "v=acc_simd.async exp=fast exec=functional steps=7 ranks=4 lb=hilbert \
             mc=4 mldm=8192 mmp=4037333333333333 mcp=4027333333333333 \
             mcs=3fb851eb851eb852 mcv=3fc851eb851eb852 mme=3ff0000000000000 \
             mstall=120000 mbw=40410ccccccccccd mdma=4000000000000000 mdl=1000000 \
             mcopy=4000000000000000 mnbw=4020000000000000 mnlat=1000000 meager=16384 \
             mmpi=1500000 mtask=120000000 mcell=9000 mspawn=8000000 mpoll=10000000 \
             mspin=3faeb851eb851eb8 og=2 odb=1 opt=0 oep=par3 ov=0 otl=1 \
             of=3735928559:30000:30000:5000:15000:30000:20000:50000:5000000:250000:\
             500000:4:200000:3000:2000000:30000000:1 rebal=3 noise=3fc0000000000000 \
             nseed=99 cgs=4:3ff0000000000000:3fe0000000000000:3ff4000000000000:\
             3ff0000000000000 ckpt=2 ckptdir=/tmp/ckpt%20dir%20with%20spaces pdes=1 \
             threads=2 la=1000000 order=3;2,1,0;0;2,0,1 wlog=1 assign=6:0:1:2:3:0:1 \
             dt=3f30624dd2f1a9fc t0=3fc0000000000000 cep=4 cagg=512 cdl=5000000 \
             cxo=4096 cpl=1"
        );
        assert_eq!(
            RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 2).to_string(),
            "v=acc.async exp=fast exec=functional steps=10 ranks=2 lb=block mc=64 \
             mldm=65536 mmp=4037333333333333 mcp=4027333333333333 mcs=3fb851eb851eb852 \
             mcv=3fc851eb851eb852 mme=3ff0000000000000 mstall=120000 \
             mbw=40410ccccccccccd mdma=4000000000000000 mdl=1000000 \
             mcopy=4000000000000000 mnbw=4020000000000000 mnlat=1000000 meager=16384 \
             mmpi=1500000 mtask=120000000 mcell=9000 mspawn=8000000 mpoll=900000000 \
             mspin=3faeb851eb851eb8 og=1 odb=0 opt=0 oep=serial ov=0 otl=0 of=- \
             rebal=- noise=0000000000000000 nseed=0 cgs=- ckpt=- ckptdir=- pdes=0 \
             threads=- la=- order=- wlog=0 assign=- dt=- t0=0000000000000000 cep=1 \
             cagg=0 cdl=0 cxo=- cpl=0"
        );
    }

    #[test]
    fn round_trip_paper_and_busy_configs() {
        let host_simd = Variant {
            simd: true,
            ..Variant::HOST_SYNC
        };
        for cfg in [
            RunConfig::paper(Variant::HOST_SYNC, ExecMode::Model, 1),
            RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 8),
            RunConfig::paper(host_simd, ExecMode::Model, 2),
            busy_config(),
        ] {
            let line = cfg.to_string();
            let parsed: RunConfig = line.parse().unwrap_or_else(|e| panic!("{e}\n{line}"));
            assert_eq!(parsed, cfg, "parse(display(cfg)) != cfg for `{line}`");
            assert_eq!(parsed.to_string(), line, "display is not a fixpoint");
        }
    }

    #[test]
    fn every_field_perturbs_the_line() {
        // Flipping any single field must change the canonical line (and
        // therefore the hash) and round-trip — the injectivity property the
        // cache rests on. The destructures are exhaustive: a new field
        // fails to compile here until it has an edit (and a `LINE` entry).
        let base = busy_config();
        let line = base.to_string();
        let check = |what: &str, edit: &dyn Fn(&mut RunConfig)| {
            let mut edited = base.clone();
            edit(&mut edited);
            let other = edited.to_string();
            assert_ne!(line, other, "edit of {what} left the line unchanged");
            assert_ne!(
                fnv128(line.as_bytes()),
                fnv128(other.as_bytes()),
                "edit of {what} collided"
            );
            let parsed: RunConfig = other.parse().expect(what);
            assert_eq!(parsed, edited, "{what} round trip");
        };
        fn fc(c: &mut RunConfig) -> &mut FaultConfig {
            c.options.faults.as_mut().expect("busy config has faults")
        }
        fn other<T: Copy + PartialEq>(all: &[T], x: T) -> T {
            *all.iter().find(|&&y| y != x).expect("a second value")
        }
        let RunConfig {
            variant,
            exec,
            steps,
            n_ranks,
            lb,
            machine,
            options,
            rebalance_every,
            noise_frac,
            noise_seed,
            cg_speeds,
            ckpt_every,
            ckpt_dir,
            pdes,
            threads,
            pdes_lookahead_ps,
            pdes_order,
            window_log,
            assignment_override,
            dt_override,
            t0,
            comm,
        } = base.clone();
        let Variant { mode, simd, exp } = variant;
        let modes = [
            SchedulerMode::MpeOnly,
            SchedulerMode::SyncCpe,
            SchedulerMode::AsyncCpe,
        ];
        check("variant.mode", &|c| c.variant.mode = other(&modes, mode));
        check("variant.simd", &|c| c.variant.simd = !simd);
        check("variant.exp", &|c| {
            c.variant.exp = other(&ExpKind::ALL, exp)
        });
        check("exec", &|c| c.exec = other(&ExecMode::ALL, exec));
        check("steps", &|c| c.steps = steps + 1);
        check("n_ranks", &|c| c.n_ranks = n_ranks + 1);
        check("lb", &|c| c.lb = other(&LoadBalancer::ALL, lb));
        let MachineConfig {
            cpes_per_cg,
            ldm_bytes,
            mpe_peak_gflops,
            cpe_peak_gflops,
            cpe_scalar_gflops,
            cpe_simd_gflops,
            mpe_eff_gflops,
            accurate_exp_stall,
            mem_bw_gbs,
            dma_cpe_peak_gbs,
            dma_latency,
            mpe_copy_gbs,
            net_bw_gbs,
            net_latency,
            eager_limit_bytes,
            mpi_call_overhead,
            mpe_task_overhead,
            mpe_task_per_cell,
            offload_spawn,
            flag_poll_interval,
            sync_spin_slowdown,
        } = machine;
        let later = |d: SimDur| SimDur(d.0 + 1);
        check("cpes_per_cg", &|c| c.machine.cpes_per_cg = cpes_per_cg + 1);
        check("ldm_bytes", &|c| c.machine.ldm_bytes = ldm_bytes + 1);
        check("mpe_peak", &|c| {
            c.machine.mpe_peak_gflops = mpe_peak_gflops * 2.0
        });
        check("cpe_peak", &|c| {
            c.machine.cpe_peak_gflops = cpe_peak_gflops * 2.0
        });
        check("cpe_scalar", &|c| {
            c.machine.cpe_scalar_gflops = cpe_scalar_gflops * 2.0
        });
        check("cpe_simd", &|c| {
            c.machine.cpe_simd_gflops = cpe_simd_gflops * 2.0
        });
        check("mpe_eff", &|c| {
            c.machine.mpe_eff_gflops = mpe_eff_gflops * 2.0
        });
        check("exp_stall", &|c| {
            c.machine.accurate_exp_stall = later(accurate_exp_stall)
        });
        check("mem_bw", &|c| c.machine.mem_bw_gbs = mem_bw_gbs * 2.0);
        check("dma_peak", &|c| {
            c.machine.dma_cpe_peak_gbs = dma_cpe_peak_gbs * 2.0
        });
        check("dma_latency", &|c| {
            c.machine.dma_latency = later(dma_latency)
        });
        check("mpe_copy", &|c| c.machine.mpe_copy_gbs = mpe_copy_gbs * 2.0);
        check("net_bw", &|c| c.machine.net_bw_gbs = net_bw_gbs * 2.0);
        check("net_latency", &|c| {
            c.machine.net_latency = later(net_latency)
        });
        check("eager_limit", &|c| {
            c.machine.eager_limit_bytes = eager_limit_bytes + 1
        });
        check("mpi_call", &|c| {
            c.machine.mpi_call_overhead = later(mpi_call_overhead)
        });
        check("mpe_task", &|c| {
            c.machine.mpe_task_overhead = later(mpe_task_overhead)
        });
        check("task_per_cell", &|c| {
            c.machine.mpe_task_per_cell = later(mpe_task_per_cell)
        });
        check("offload_spawn", &|c| {
            c.machine.offload_spawn = later(offload_spawn)
        });
        check("flag_poll", &|c| {
            c.machine.flag_poll_interval = later(flag_poll_interval)
        });
        check("sync_spin", &|c| {
            c.machine.sync_spin_slowdown = sync_spin_slowdown * 2.0
        });
        let SchedulerOptions {
            cpe_groups,
            double_buffer,
            packed_tiles,
            exec_policy,
            verify,
            telemetry,
            faults,
        } = options;
        check("cpe_groups", &|c| c.options.cpe_groups = cpe_groups + 1);
        check("double_buffer", &|c| {
            c.options.double_buffer = !double_buffer
        });
        check("packed_tiles", &|c| c.options.packed_tiles = !packed_tiles);
        check("exec_policy", &|c| {
            c.options.exec_policy = other(&[ExecPolicy::Serial, ExecPolicy::AUTO], exec_policy)
        });
        check("verify", &|c| c.options.verify = !verify);
        check("telemetry", &|c| c.options.telemetry = !telemetry);
        check("faults", &|c| c.options.faults = None);
        let FaultConfig {
            seed,
            slot_death_ppm,
            straggler_ppm,
            straggler_factor_milli,
            dma_error_ppm,
            msg_drop_ppm,
            msg_dup_ppm,
            msg_delay_ppm,
            delay_ps,
            rank_jitter_ppm,
            jitter_ps,
            max_attempts,
            backoff_base_ps,
            timeout_factor_milli,
            timeout_slack_ps,
            msg_timeout_ps,
            guarantee_recovery,
        } = faults.expect("busy config has faults");
        check("f.seed", &|c| fc(c).seed = seed + 1);
        check("f.slot_death", &|c| {
            fc(c).slot_death_ppm = slot_death_ppm + 1
        });
        check("f.straggler", &|c| fc(c).straggler_ppm = straggler_ppm + 1);
        check("f.straggler_factor", &|c| {
            fc(c).straggler_factor_milli = straggler_factor_milli + 1
        });
        check("f.dma_error", &|c| fc(c).dma_error_ppm = dma_error_ppm + 1);
        check("f.msg_drop", &|c| fc(c).msg_drop_ppm = msg_drop_ppm + 1);
        check("f.msg_dup", &|c| fc(c).msg_dup_ppm = msg_dup_ppm + 1);
        check("f.msg_delay", &|c| fc(c).msg_delay_ppm = msg_delay_ppm + 1);
        check("f.delay", &|c| fc(c).delay_ps = delay_ps + 1);
        check("f.rank_jitter", &|c| {
            fc(c).rank_jitter_ppm = rank_jitter_ppm + 1
        });
        check("f.jitter", &|c| fc(c).jitter_ps = jitter_ps + 1);
        check("f.max_attempts", &|c| fc(c).max_attempts = max_attempts + 1);
        check("f.backoff", &|c| {
            fc(c).backoff_base_ps = backoff_base_ps + 1
        });
        check("f.timeout_factor", &|c| {
            fc(c).timeout_factor_milli = timeout_factor_milli + 1
        });
        check("f.timeout_slack", &|c| {
            fc(c).timeout_slack_ps = timeout_slack_ps + 1
        });
        check("f.msg_timeout", &|c| {
            fc(c).msg_timeout_ps = msg_timeout_ps + 1
        });
        check("f.guarantee", &|c| {
            fc(c).guarantee_recovery = !guarantee_recovery
        });
        check("rebalance_every", &|c| {
            c.rebalance_every = rebalance_every.map(|k| k + 1)
        });
        check("noise_frac", &|c| c.noise_frac = noise_frac + 1e-10);
        check("noise_seed", &|c| c.noise_seed = noise_seed + 1);
        check("cg_speeds", &|c| {
            c.cg_speeds = cg_speeds.clone().map(|mut v| {
                v[3] = 1.0000001;
                v
            })
        });
        check("ckpt_every", &|c| c.ckpt_every = ckpt_every.map(|k| k + 1));
        check("ckpt_dir", &|c| {
            c.ckpt_dir = ckpt_dir.as_ref().map(|p| p.join("2"))
        });
        check("pdes", &|c| c.pdes = !pdes);
        check("threads", &|c| c.threads = threads.map(|t| t + 1));
        check("pdes_lookahead_ps", &|c| {
            c.pdes_lookahead_ps = pdes_lookahead_ps.map(|ps| ps + 1)
        });
        check("pdes_order", &|c| {
            c.pdes_order = pdes_order.as_ref().map(|o| {
                let mut o = Vec::clone(o);
                o[1].push(0);
                Arc::new(o)
            })
        });
        check("window_log", &|c| c.window_log = !window_log);
        check("assignment_override", &|c| {
            c.assignment_override = assignment_override.as_ref().map(|a| {
                let mut a = Vec::clone(a);
                a[5] = 2;
                Arc::new(a)
            })
        });
        check("dt_override", &|c| {
            c.dt_override = dt_override.map(|dt| dt * 2.0)
        });
        check("t0", &|c| c.t0 = t0 + 1e-7);
        let sw_mpi::CommConfig {
            endpoints,
            agg_bytes,
            agg_deadline_ps,
            eager_crossover,
            progress_lane,
        } = comm;
        check("comm.endpoints", &|c| c.comm.endpoints = endpoints + 1);
        check("comm.agg_bytes", &|c| c.comm.agg_bytes = agg_bytes * 2);
        check("comm.agg_deadline_ps", &|c| {
            c.comm.agg_deadline_ps = agg_deadline_ps + 1
        });
        check("comm.eager_crossover", &|c| {
            c.comm.eager_crossover = eager_crossover.map(|x| x + 1)
        });
        check("comm.progress_lane", &|c| {
            c.comm.progress_lane = !progress_lane
        });
    }

    #[test]
    fn nan_and_negative_zero_round_trip_exactly() {
        let mut cfg = RunConfig::paper(Variant::ACC_SYNC, ExecMode::Model, 2);
        cfg.noise_frac = f64::NAN;
        let parsed: RunConfig = cfg.to_string().parse().unwrap();
        assert_eq!(parsed.noise_frac.to_bits(), cfg.noise_frac.to_bits());
        cfg.noise_frac = -0.0;
        let parsed: RunConfig = cfg.to_string().parse().unwrap();
        assert_eq!(parsed.noise_frac.to_bits(), (-0.0f64).to_bits());
        // -0.0 and 0.0 are distinct canonical lines (bit patterns differ).
        let mut pos = cfg.clone();
        pos.noise_frac = 0.0;
        assert_ne!(cfg.to_string(), pos.to_string());
    }

    #[test]
    fn parser_rejects_non_canonical_spellings() {
        let line = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 2).to_string();
        let busy = busy_config().to_string();
        // Tampering with a token must be rejected, not silently normalized;
        // the error names the token.
        for (bad, names) in [
            (line.replace("steps=10", "steps=010"), "steps"),
            (line.replace("steps=10", "steps=+10"), "steps"),
            (line.replace("ranks=2", "Ranks=2"), "Ranks"),
            (line.replace("lb=block", "lb=BLOCK"), "lb"),
            (line.replace("pdes=0", "pdes=2"), "pdes"),
            (line.replace("noise=0000000000000000", "noise=0"), "noise"),
            (line.replace("oep=serial", "oep=par03"), "oep"),
            (format!("{line} extra=1"), "54"),
            (line.replace(" exp=fast", ""), "exp"),
            (busy.replace("cgs=4:", "cgs=5:"), "cgs"),
            (busy.replace("order=3;", "order=03;"), "order"),
            (busy.replace("%20dir", "%2"), "ckptdir"),
            (busy.replace("of=3735928559:", "of=3735928559:1:"), "of"),
        ] {
            match bad.parse::<RunConfig>() {
                Ok(_) => panic!("accepted non-canonical `{bad}`"),
                Err(e) => assert!(e.contains(names), "`{e}` does not name `{names}`"),
            }
        }
    }

    #[test]
    fn canonical_job_includes_geometry_and_app() {
        let level = Level::new(iv(4, 4, 4), iv(2, 1, 1));
        let cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 2);
        let line = canonical_job(&level, "burgers", &cfg);
        assert!(line.starts_with("level=4x4x4/2x1x1 app=burgers v=acc.async "));
        // Same config on a different level is a different job.
        let other = canonical_job(&Level::new(iv(4, 4, 2), iv(2, 1, 1)), "burgers", &cfg);
        assert_ne!(fnv128(line.as_bytes()), fnv128(other.as_bytes()));
    }

    #[test]
    fn canonical_level_distinguishes_amr_sub_boxes() {
        // Unit-cube rendering is the historical one (no `@` suffix): every
        // pre-AMR cache key survives byte-for-byte.
        let unit = Level::new(iv(4, 4, 4), iv(2, 1, 1));
        assert_eq!(canonical_level(&unit), "4x4x4/2x1x1");
        // A fine level over a sub-box appends its domain in bit-pattern hex.
        let fine = Level::with_domain(iv(4, 4, 4), iv(2, 1, 1), [0.25; 3], [0.75; 3]);
        let tok = canonical_level(&fine);
        assert_eq!(
            tok,
            "4x4x4/2x1x1@3fd0000000000000:3fd0000000000000:3fd0000000000000:\
             3fe8000000000000:3fe8000000000000:3fe8000000000000"
        );
        // Different windows are different jobs.
        let other = Level::with_domain(iv(4, 4, 4), iv(2, 1, 1), [0.25; 3], [0.875; 3]);
        assert_ne!(tok, canonical_level(&other));
        let cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 2);
        assert_ne!(
            fnv128(canonical_job(&fine, "burgers", &cfg).as_bytes()),
            fnv128(canonical_job(&other, "burgers", &cfg).as_bytes())
        );
    }

    #[test]
    fn fnv128_matches_reference_vectors() {
        // Standard FNV-1a 128 test vectors.
        assert_eq!(fnv128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(fnv128(b"a"), 0xd228cb696f1a8caf78912b704e4a8964);
    }
}
