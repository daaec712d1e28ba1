//! Job specifications: the typed boundary between the outside world and
//! the campaign queue.
//!
//! A [`JobSpec`] is a flat, human-writable description of one run — patch
//! geometry, variant, balancer, fault preset — parsed from a single JSONL
//! line (the workspace serde is a no-op shim, so the parser is a small
//! hand-rolled flat-object reader: string, integer, and boolean values
//! only, which is exactly the vocabulary a job needs). [`JobSpec::build`]
//! turns a spec into a `(Level, RunConfig)` pair or a typed rejection;
//! everything downstream of that boundary works with validated configs
//! only.
//!
//! [`demo_jobs`] generates a seeded batch for the `repro serve --demo`
//! path and the CI campaign stage, using the resilience crate's keyed-draw
//! discipline (`splitmix64` over `fold`, own domain word) so job `i` of
//! seed `s` is the same forever. The last job of any batch of two or more
//! duplicates job 0, so every demo campaign exercises the dedup path.

use std::collections::BTreeMap;

use sw_athread::ExecPolicy;
use sw_resilience::{fold, splitmix64, FaultConfig, FaultPreset};
use uintah_core::grid::iv;
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

/// Parse an `AxBxC` extent triple of positive integers.
fn parse_triple(s: &str, what: &str) -> Result<(i64, i64, i64), String> {
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
    Ok((vals[0], vals[1], vals[2]))
}

/// One job as submitted: flat strings and integers, defaults filled in.
/// `build` is where it becomes (or fails to become) a validated config.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Patch extent, `AxBxC` cells.
    pub patch: String,
    /// Patch layout, `AxBxC` patches.
    pub layout: String,
    /// Variant name: any [`Variant::name`], e.g. `acc_simd.async`.
    pub variant: String,
    /// Execution mode: `functional` or `model`.
    pub exec: String,
    /// Timesteps.
    pub steps: u32,
    /// Simulated CGs (MPI ranks).
    pub ranks: usize,
    /// Balancer: `block`, `rr`, `morton`, or `hilbert`.
    pub lb: String,
    /// Machine preset: `tiny` or `sw26010`.
    pub machine: String,
    /// Host threads for functional kernels: 0 = serial engine.
    pub exec_threads: usize,
    /// CPE groups (>1 requires an async variant).
    pub cpe_groups: usize,
    /// Simulation-level fault preset: `none`, `standard`, or `harsh`.
    pub faults: String,
    /// Seed for the fault preset.
    pub fault_seed: u64,
    /// Checkpoint interval (0 = no checkpointing).
    pub ckpt_every: u32,
    /// Drive ranks through the parallel PDES core.
    pub pdes: bool,
    /// PDES worker threads (0 = default).
    pub pdes_threads: usize,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            patch: "4x4x4".to_string(),
            layout: "2x1x1".to_string(),
            variant: Variant::ACC_ASYNC.name().to_string(),
            exec: ExecMode::Functional.name().to_string(),
            steps: 2,
            ranks: 2,
            lb: LoadBalancer::Block.name().to_string(),
            machine: "tiny".to_string(),
            exec_threads: 0,
            cpe_groups: 1,
            faults: FaultPreset::NoFaults.name().to_string(),
            fault_seed: 1,
            ckpt_every: 0,
            pdes: false,
            pdes_threads: 0,
        }
    }
}

impl JobSpec {
    /// Parse one JSONL job line. Unknown keys are rejected (a typo must
    /// not silently run the default job).
    pub fn parse(line: &str) -> Result<JobSpec, String> {
        let map = parse_flat_json(line)?;
        let mut spec = JobSpec::default();
        for (key, val) in &map {
            let want_str = || match val {
                JsonVal::Str(s) => Ok(s.clone()),
                other => Err(format!("key `{key}` wants a string, got {other:?}")),
            };
            let want_uint = || match val {
                JsonVal::Int(n) if *n >= 0 => Ok(*n as u64),
                other => Err(format!(
                    "key `{key}` wants a non-negative int, got {other:?}"
                )),
            };
            let want_bool = || match val {
                JsonVal::Bool(b) => Ok(*b),
                other => Err(format!("key `{key}` wants a bool, got {other:?}")),
            };
            match key.as_str() {
                "patch" => spec.patch = want_str()?,
                "layout" => spec.layout = want_str()?,
                "variant" => spec.variant = want_str()?,
                "exec" => spec.exec = want_str()?,
                "steps" => spec.steps = want_uint()? as u32,
                "ranks" => spec.ranks = want_uint()? as usize,
                "lb" => spec.lb = want_str()?,
                "machine" => spec.machine = want_str()?,
                "exec_threads" => spec.exec_threads = want_uint()? as usize,
                "cpe_groups" => spec.cpe_groups = want_uint()? as usize,
                "faults" => spec.faults = want_str()?,
                "fault_seed" => spec.fault_seed = want_uint()?,
                "ckpt_every" => spec.ckpt_every = want_uint()? as u32,
                "pdes" => spec.pdes = want_bool()?,
                "pdes_threads" => spec.pdes_threads = want_uint()? as usize,
                other => return Err(format!("unknown job key `{other}`")),
            }
        }
        Ok(spec)
    }

    /// Resolve the spec into a level and run configuration, or a typed
    /// rejection string naming the bad field.
    pub fn build(&self) -> Result<(Level, RunConfig), String> {
        let (px, py, pz) = parse_triple(&self.patch, "patch")?;
        let (lx, ly, lz) = parse_triple(&self.layout, "layout")?;
        let level =
            Level::try_new(iv(px, py, pz), iv(lx, ly, lz)).map_err(|e| format!("level: {e}"))?;
        let variant = Variant::from_name(&self.variant)
            .ok_or_else(|| format!("unknown variant `{}`", self.variant))?;
        let exec = ExecMode::from_name(&self.exec)
            .ok_or_else(|| format!("unknown exec mode `{}`", self.exec))?;
        let lb = LoadBalancer::from_name(&self.lb)
            .ok_or_else(|| format!("unknown balancer `{}`", self.lb))?;
        let machine = match self.machine.as_str() {
            "tiny" => MachineConfig::test_tiny(),
            "sw26010" => MachineConfig::sw26010(),
            other => return Err(format!("unknown machine `{other}`")),
        };
        let faults = FaultPreset::from_name(&self.faults)
            .ok_or_else(|| format!("unknown fault preset `{}`", self.faults))?
            .config(self.fault_seed);
        let mut cfg = RunConfig::paper(variant, exec, self.ranks);
        cfg.steps = self.steps;
        cfg.lb = lb;
        cfg.machine = machine;
        cfg.options.cpe_groups = self.cpe_groups.max(1);
        cfg.options.exec_policy = if self.exec_threads == 0 {
            ExecPolicy::Serial
        } else {
            ExecPolicy::Parallel {
                threads: self.exec_threads,
            }
        };
        cfg.options.faults = faults;
        cfg.ckpt_every = (self.ckpt_every > 0).then_some(self.ckpt_every);
        cfg.pdes = self.pdes;
        cfg.threads = (self.pdes_threads > 0).then_some(self.pdes_threads);
        Ok((level, cfg))
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

    #[test]
    fn spec_defaults_and_overrides() {
        let spec = JobSpec::parse(r#"{"variant": "acc.sync", "steps": 3, "pdes": true}"#).unwrap();
        assert_eq!(spec.variant, "acc.sync");
        assert_eq!(spec.steps, 3);
        assert!(spec.pdes);
        assert_eq!(spec.patch, "4x4x4"); // default survives
        let (_level, cfg) = spec.build().unwrap();
        assert_eq!(cfg.steps, 3);
        assert!(cfg.pdes);
    }

    #[test]
    fn spec_rejects_unknown_keys_and_bad_fields() {
        assert!(JobSpec::parse(r#"{"varint": "acc.sync"}"#).is_err());
        let bad_variant = JobSpec::parse(r#"{"variant": "warp.sync"}"#).unwrap();
        assert!(bad_variant.build().is_err());
        // Every name `Variant::name` produces parses, not only Table IV's.
        let host_simd = JobSpec::parse(r#"{"variant": "host_simd.sync"}"#).unwrap();
        assert_eq!(
            host_simd.build().unwrap().1.variant.name(),
            "host_simd.sync"
        );
        let bad_patch = JobSpec::parse(r#"{"patch": "4x4"}"#).unwrap();
        assert!(bad_patch.build().is_err());
        // Typed-validation boundary: more ranks than patches is rejected
        // at build time, not deep inside a worker.
        let bad_ranks = JobSpec::parse(r#"{"layout": "1x1x1", "ranks": 8}"#).unwrap();
        assert!(
            bad_ranks.build().is_err() || {
                // build() itself only resolves names; config validation runs in
                // the service. Either rejection point satisfies the boundary.
                use uintah_core::validate_config;
                let (level, cfg) = bad_ranks.build().unwrap();
                validate_config(&level, 1, &cfg).is_err()
            }
        );
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
