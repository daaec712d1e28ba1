//! Job specifications: the typed boundary between the outside world and
//! the campaign queue.
//!
//! A job line is a flat, human-writable description of one run — patch
//! geometry, variant, balancer, fault preset — in a single JSONL line (the
//! workspace serde is a no-op shim, so the parser is a small hand-rolled
//! flat-object reader: string, integer, and boolean values only, which is
//! exactly the vocabulary a job needs). [`JobSpec::parse`] reads each key
//! straight into the `(Level, RunConfig)` pair the line names, or rejects
//! the line with a message naming the bad key or value; [`JobSpec::build`]
//! hands the pair out. Everything downstream of that boundary works with
//! configs only.
//!
//! [`demo_jobs`] generates a seeded batch for the `repro serve --demo`
//! path and the CI campaign stage, using the resilience crate's keyed-draw
//! discipline (`splitmix64` over `fold`, own domain word) so job `i` of
//! seed `s` is the same forever. The last job of any batch of two or more
//! duplicates job 0, so every demo campaign exercises the dedup path.

use std::collections::BTreeMap;

use sw_athread::ExecPolicy;
use sw_resilience::{fold, splitmix64, FaultConfig, FaultPreset};
use uintah_core::grid::{iv, IntVec};
use uintah_core::{ExecMode, Level, LoadBalancer, MachineConfig, RunConfig, Variant};

/// Domain discriminant for demo-job keyed draws (torture uses 0x7081,
/// resilience 0x51..0x71; this namespace is disjoint).
const DOMAIN: u64 = 0x5EAF;

/// A flat JSON value: the only shapes a job line may carry.
#[derive(Clone, Debug, PartialEq)]
enum JsonVal {
    Str(String),
    Int(i64),
    Bool(bool),
}

/// Parse one flat JSON object (`{"k": "v", "n": 3, "b": true}`): no
/// nesting, no arrays, no floats. Returns key -> value or a parse error
/// naming the offending byte offset.
fn parse_flat_json(line: &str) -> Result<BTreeMap<String, JsonVal>, String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let mut map = BTreeMap::new();
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && (bytes[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if bytes.get(*i) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {i}", i = *i));
        }
        *i += 1;
        let mut s = String::new();
        while let Some(&b) = bytes.get(*i) {
            match b {
                b'"' => {
                    *i += 1;
                    return Ok(s);
                }
                b'\\' => {
                    *i += 1;
                    match bytes.get(*i) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    *i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 passes through untouched.
                    let ch_len = line[*i..].chars().next().map_or(1, char::len_utf8);
                    s.push_str(&line[*i..*i + ch_len]);
                    *i += ch_len;
                }
            }
        }
        Err("unterminated string".to_string())
    };
    skip_ws(&mut i);
    if bytes.get(i) != Some(&b'{') {
        return Err("job line must be a JSON object".to_string());
    }
    i += 1;
    skip_ws(&mut i);
    if bytes.get(i) == Some(&b'}') {
        return Ok(map);
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key `{key}`"));
        }
        i += 1;
        skip_ws(&mut i);
        let val = match bytes.get(i) {
            Some(b'"') => JsonVal::Str(parse_string(&mut i)?),
            Some(b't') if line[i..].starts_with("true") => {
                i += 4;
                JsonVal::Bool(true)
            }
            Some(b'f') if line[i..].starts_with("false") => {
                i += 5;
                JsonVal::Bool(false)
            }
            Some(&c) if c == b'-' || c.is_ascii_digit() => {
                let start = i;
                if c == b'-' {
                    i += 1;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &line[start..i];
                JsonVal::Int(
                    text.parse::<i64>()
                        .map_err(|e| format!("bad integer `{text}`: {e}"))?,
                )
            }
            other => return Err(format!("unsupported value for key `{key}`: {other:?}")),
        };
        if map.insert(key.clone(), val).is_some() {
            return Err(format!("duplicate key `{key}`"));
        }
        skip_ws(&mut i);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                break;
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    skip_ws(&mut i);
    if i != bytes.len() {
        return Err(format!("trailing bytes after object at {i}"));
    }
    Ok(map)
}

impl JsonVal {
    /// The value of `key` as a string.
    fn text(&self, key: &str) -> Result<&str, String> {
        match self {
            JsonVal::Str(s) => Ok(s),
            other => Err(format!("key `{key}` wants a string, got {other:?}")),
        }
    }

    /// The value of `key` as a non-negative integer that fits `T`.
    fn uint<T: TryFrom<i64>>(&self, key: &str) -> Result<T, String> {
        match self {
            JsonVal::Int(n) if *n >= 0 => {
                T::try_from(*n).map_err(|_| format!("key `{key}` = {n} is out of range"))
            }
            other => Err(format!(
                "key `{key}` wants a non-negative int, got {other:?}"
            )),
        }
    }

    /// The value of `key` as a boolean.
    fn flag(&self, key: &str) -> Result<bool, String> {
        match self {
            JsonVal::Bool(b) => Ok(*b),
            other => Err(format!("key `{key}` wants a bool, got {other:?}")),
        }
    }
}

/// Look `name` up with `lookup`, or reject it as an unknown `what`.
fn named<T>(name: &str, what: &str, lookup: fn(&str) -> Option<T>) -> Result<T, String> {
    lookup(name).ok_or_else(|| format!("unknown {what} `{name}`"))
}

/// Parse an `AxBxC` extent triple of positive integers.
fn parse_triple(s: &str, what: &str) -> Result<IntVec, String> {
    let parts: Vec<&str> = s.split('x').collect();
    if parts.len() != 3 {
        return Err(format!("{what} must be AxBxC, got `{s}`"));
    }
    let mut vals = [0i64; 3];
    for (slot, p) in vals.iter_mut().zip(&parts) {
        *slot = p
            .parse::<i64>()
            .map_err(|e| format!("{what} axis `{p}`: {e}"))?;
        if *slot <= 0 {
            return Err(format!("{what} axis `{p}` must be positive"));
        }
    }
    Ok(iv(vals[0], vals[1], vals[2]))
}

/// One job as submitted, parsed straight into the run it names: the
/// default job — patch `4x4x4`, layout `2x1x1`, `acc.async`, functional,
/// 2 steps on 2 ranks, block balancer, the tiny machine, no faults (fault
/// seed 1) — with every key of the line applied. Config validation runs
/// in the service.
#[derive(Clone, Debug)]
pub struct JobSpec {
    level: Level,
    cfg: RunConfig,
}

impl JobSpec {
    /// Parse one JSONL job line. Unknown keys, unknown names and integers
    /// that do not fit their field are rejected with a message naming the
    /// key or value (a typo must not silently run the default job).
    pub fn parse(line: &str) -> Result<JobSpec, String> {
        let map = parse_flat_json(line)?;
        let (mut patch, mut layout) = (iv(4, 4, 4), iv(2, 1, 1));
        let (mut faults, mut fault_seed) = (FaultPreset::NoFaults, 1);
        let mut cfg = RunConfig {
            steps: 2,
            machine: MachineConfig::test_tiny(),
            ..RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 2)
        };
        for (key, val) in &map {
            let k = key.as_str();
            match k {
                "patch" => patch = parse_triple(val.text(k)?, "patch")?,
                "layout" => layout = parse_triple(val.text(k)?, "layout")?,
                "variant" => cfg.variant = named(val.text(k)?, "variant", Variant::from_name)?,
                "exec" => cfg.exec = named(val.text(k)?, "exec mode", ExecMode::from_name)?,
                "steps" => cfg.steps = val.uint(k)?,
                "ranks" => cfg.n_ranks = val.uint(k)?,
                "lb" => cfg.lb = named(val.text(k)?, "balancer", LoadBalancer::from_name)?,
                "machine" => {
                    cfg.machine = named(val.text(k)?, "machine", |m| match m {
                        "tiny" => Some(MachineConfig::test_tiny()),
                        "sw26010" => Some(MachineConfig::sw26010()),
                        _ => None,
                    })?;
                }
                "exec_threads" => {
                    cfg.options.exec_policy = match val.uint(k)? {
                        0 => ExecPolicy::Serial,
                        threads => ExecPolicy::Parallel { threads },
                    };
                }
                "cpe_groups" => cfg.options.cpe_groups = val.uint(k)?,
                "faults" => faults = named(val.text(k)?, "fault preset", FaultPreset::from_name)?,
                "fault_seed" => fault_seed = val.uint(k)?,
                "ckpt_every" => cfg.ckpt_every = Some(val.uint(k)?).filter(|&n| n > 0),
                "pdes" => cfg.pdes = val.flag(k)?,
                "pdes_threads" => cfg.threads = Some(val.uint(k)?).filter(|&n| n > 0),
                other => return Err(format!("unknown job key `{other}`")),
            }
        }
        cfg.options.faults = faults.config(fault_seed);
        let level = Level::try_new(patch, layout).map_err(|e| format!("level: {e}"))?;
        Ok(JobSpec { level, cfg })
    }

    /// The level and run configuration the job names.
    pub fn build(&self) -> Result<(Level, RunConfig), String> {
        Ok((self.level.clone(), self.cfg.clone()))
    }
}

/// One keyed draw: same `(seed, job, field)` -> same value, always.
fn draw(seed: u64, job: u64, f: u64) -> u64 {
    splitmix64(fold(&[DOMAIN, seed, job, f]))
}

/// Generate `n` seeded demo jobs for `repro serve --demo` and the CI
/// campaign stage. Every job is valid by construction (small functional
/// runs on the tiny machine across all five Table IV variants, all four
/// balancers, serial and parallel engines, fault plane on or off). When
/// `n >= 2` the last job duplicates job 0 so dedup always fires.
pub fn demo_jobs(seed: u64, n: usize) -> Vec<(Level, RunConfig)> {
    let gen_one = |id: u64| -> (Level, RunConfig) {
        let ax = |f: u64| 2 + (draw(seed, id, f) % 3) as i64; // 2..=4 cells
        let level = Level::new(
            iv(ax(1), ax(2), ax(3)),
            iv(
                1 + (draw(seed, id, 4) % 2) as i64,
                1 + (draw(seed, id, 5) % 2) as i64,
                1,
            ),
        );
        let variant = Variant::TABLE_IV[(draw(seed, id, 6) % 5) as usize];
        let ranks = (1 + (draw(seed, id, 7) % 2) as usize).min(level.n_patches());
        let mut cfg = RunConfig::paper(variant, ExecMode::Functional, ranks);
        cfg.steps = 1 + (draw(seed, id, 8) % 2) as u32;
        cfg.machine = MachineConfig::test_tiny();
        cfg.lb = LoadBalancer::ALL[(draw(seed, id, 9) % 4) as usize];
        cfg.options.exec_policy = if draw(seed, id, 10).is_multiple_of(2) {
            ExecPolicy::Serial
        } else {
            ExecPolicy::Parallel { threads: 2 }
        };
        if draw(seed, id, 11).is_multiple_of(2) {
            cfg.options.faults = Some(FaultConfig::standard(draw(seed, id, 12)));
        }
        (level, cfg)
    };
    (0..n)
        .map(|i| {
            if n >= 2 && i == n - 1 {
                gen_one(0)
            } else {
                gen_one(i as u64)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_happy_path() {
        let m = parse_flat_json(r#"{"a": "x", "n": 42, "b": true, "neg": -3}"#).unwrap();
        assert_eq!(m["a"], JsonVal::Str("x".to_string()));
        assert_eq!(m["n"], JsonVal::Int(42));
        assert_eq!(m["b"], JsonVal::Bool(true));
        assert_eq!(m["neg"], JsonVal::Int(-3));
        assert!(parse_flat_json("{}").unwrap().is_empty());
    }

    #[test]
    fn flat_json_rejects_malformed_lines() {
        for bad in [
            "",
            "[1]",
            r#"{"a": }"#,
            r#"{"a": "x""#,
            r#"{"a": 1.5}"#,
            r#"{"a": {"nested": 1}}"#,
            r#"{"a": 1} trailing"#,
            r#"{"a": 1, "a": 2}"#,
        ] {
            assert!(parse_flat_json(bad).is_err(), "accepted: {bad}");
        }
    }

    /// A job line through both calls, as `serve` and the benchmark chain
    /// them.
    fn job(line: &str) -> Result<(Level, RunConfig), String> {
        JobSpec::parse(line).and_then(|spec| spec.build())
    }

    /// The canonical line of a job line's run.
    fn canon(line: &str) -> String {
        let (level, cfg) = job(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        uintah_core::canonical_job(&level, "burgers", &cfg)
    }

    #[test]
    fn spec_defaults_and_overrides() {
        let (level, cfg) = job(r#"{"variant": "acc.sync", "steps": 3, "pdes": true}"#).unwrap();
        assert_eq!(cfg.variant, Variant::ACC_SYNC);
        assert_eq!(cfg.steps, 3);
        assert!(cfg.pdes);
        // Defaults survive.
        assert_eq!(
            (level.patch_extent(), level.layout()),
            (iv(4, 4, 4), iv(2, 1, 1))
        );
        let (level, cfg) = job("{}").unwrap();
        let mut want = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Functional, 2);
        want.steps = 2;
        want.machine = MachineConfig::test_tiny();
        assert_eq!(cfg, want);
        assert_eq!(
            (level.patch_extent(), level.layout()),
            (iv(4, 4, 4), iv(2, 1, 1))
        );
    }

    #[test]
    fn every_job_key_reaches_the_run() {
        let default = canon("{}");
        for line in [
            r#"{"patch": "3x4x4"}"#,
            r#"{"layout": "1x2x1"}"#,
            r#"{"variant": "acc_simd.async"}"#,
            r#"{"exec": "model"}"#,
            r#"{"steps": 5}"#,
            r#"{"ranks": 1}"#,
            r#"{"lb": "hilbert"}"#,
            r#"{"machine": "sw26010"}"#,
            r#"{"exec_threads": 2}"#,
            r#"{"cpe_groups": 2}"#,
            r#"{"faults": "harsh"}"#,
            r#"{"fault_seed": 9, "faults": "standard"}"#,
            r#"{"ckpt_every": 1}"#,
            r#"{"pdes": true}"#,
            r#"{"pdes_threads": 2}"#,
        ] {
            assert_ne!(
                canon(line),
                default,
                "{line} left the default job unchanged"
            );
        }
        // The seed is a key of its own, not only the preset's.
        assert_ne!(
            canon(r#"{"fault_seed": 9, "faults": "standard"}"#),
            canon(r#"{"faults": "standard"}"#)
        );
    }

    #[test]
    fn spec_rejects_unknown_keys_and_bad_fields() {
        for bad in [
            r#"{"varint": "acc.sync"}"#,
            r#"{"variant": "warp.sync"}"#,
            r#"{"exec": "fast"}"#,
            r#"{"lb": "zigzag"}"#,
            r#"{"machine": "taihu"}"#,
            r#"{"faults": "some"}"#,
            r#"{"patch": "4x4"}"#,
            r#"{"steps": -1}"#,
            r#"{"pdes": 1}"#,
        ] {
            assert!(job(bad).is_err(), "accepted: {bad}");
        }
        // Every name `Variant::name` produces parses, not only Table IV's.
        assert_eq!(
            job(r#"{"variant": "host_simd.sync"}"#)
                .unwrap()
                .1
                .variant
                .name(),
            "host_simd.sync"
        );
        // An integer that does not fit its field is an error naming the
        // key, never a wrapped or coerced value.
        for (bad, key) in [
            (r#"{"steps": 4294967297}"#, "`steps`"),
            (r#"{"ckpt_every": 4294967296}"#, "`ckpt_every`"),
        ] {
            let e = job(bad).expect_err(bad);
            assert!(e.contains(key), "{bad}: {e}");
        }
        // Config validation runs in the service: a zero `cpe_groups` or
        // more ranks than patches reaches it unchanged, and it rejects them.
        let (level, cfg) = job(r#"{"cpe_groups": 0}"#).unwrap();
        assert_eq!(cfg.options.cpe_groups, 0);
        assert_eq!(
            uintah_core::validate_config(&level, 1, &cfg),
            Err(uintah_core::ConfigError::ZeroCpeGroups)
        );
        let (level, cfg) = job(r#"{"layout": "1x1x1", "ranks": 8}"#).unwrap();
        assert!(uintah_core::validate_config(&level, 1, &cfg).is_err());
    }

    #[test]
    fn demo_jobs_are_deterministic_and_end_with_a_duplicate() {
        let a = demo_jobs(7, 16);
        let b = demo_jobs(7, 16);
        assert_eq!(a.len(), 16);
        for ((la, ca), (lb, cb)) in a.iter().zip(&b) {
            assert_eq!(
                uintah_core::canonical_job(la, "burgers", ca),
                uintah_core::canonical_job(lb, "burgers", cb)
            );
        }
        let first = uintah_core::canonical_job(&a[0].0, "burgers", &a[0].1);
        let last = uintah_core::canonical_job(&a[15].0, "burgers", &a[15].1);
        assert_eq!(first, last, "last demo job must duplicate job 0");
        // Different seeds generate different batches.
        let c = demo_jobs(8, 16);
        let differs = a.iter().zip(&c).any(|((la, ca), (lc, cc))| {
            uintah_core::canonical_job(la, "burgers", ca)
                != uintah_core::canonical_job(lc, "burgers", cc)
        });
        assert!(differs);
    }

    #[test]
    fn demo_jobs_all_validate() {
        for (level, cfg) in demo_jobs(0, 64) {
            uintah_core::validate_config(&level, 1, &cfg)
                .unwrap_or_else(|e| panic!("demo job invalid: {e}"));
        }
    }
}
