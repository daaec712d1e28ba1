//! Canonical-serialization round-trip proof over the torture corpus.
//!
//! The campaign cache is keyed on `fnv128(canonical_job(..))`, so the
//! canonical line must be **injective**: two configs that differ in any
//! field the simulation reads must render to different lines, and the
//! line must parse back to exactly the config that produced it. Rather
//! than hand-picking configs, this drives the proof over the torture
//! generator's full seed-0 corpus — the same 200 cases the `repro
//! torture` differential campaign fuzzes with — which covers every
//! variant, balancer, machine preset, fault preset, checkpoint cadence,
//! and PDES engine combination the generator can draw, and (every
//! corrupted case is a config too) the out-of-domain values the rejection
//! oracle feeds `Simulation::try_new`: NaN noise, zero groups, threads and
//! checkpoint interval, a 64-byte LDM.

use std::collections::BTreeMap;

use bench::torture::TortureCase;
use uintah_core::{canonical_job, fnv128, RunConfig};

const SEED: u64 = 0;
const CASES: u64 = 200;

/// `a == b`, except that the noise fraction is compared by its bit pattern:
/// the `nan_noise` corruption makes `==` deny that a config equals itself.
fn same(a: &RunConfig, b: &RunConfig) -> bool {
    let quiet = |c: &RunConfig| RunConfig {
        noise_frac: 0.0,
        ..c.clone()
    };
    a.noise_frac.to_bits() == b.noise_frac.to_bits() && quiet(a) == quiet(b)
}

#[test]
fn display_fromstr_round_trips_over_the_torture_corpus() {
    let (mut checked, mut corrupted) = (0u64, 0u64);
    for id in 0..CASES {
        let case = TortureCase::generate(SEED, id);
        corrupted += u64::from(case.corrupt.is_some());
        let cfg = case.cfg;
        let line = cfg.to_string();
        let parsed: RunConfig = line
            .parse()
            .unwrap_or_else(|e| panic!("case {id}: `{line}` failed to parse: {e}"));
        assert!(
            same(&parsed, &cfg),
            "case {id}: round-trip changed the config"
        );
        // Re-rendering the parsed config reproduces the exact bytes.
        assert_eq!(parsed.to_string(), line, "case {id}: unstable rendering");
        checked += 1;
    }
    // The corpus split is pinned by the seed; if the generator changes,
    // these counts change with it and the assertions document the new ones.
    assert_eq!(checked, 200, "every seed-0 line must round-trip");
    assert_eq!(
        corrupted, 29,
        "corrupted-case count drifted from the seed-0 corpus"
    );
}

#[test]
fn amr_augmented_corpus_round_trips_and_stays_injective() {
    // The AMR driver recompiles per-level `RunConfig`s carrying the three
    // knobs the canonical line grew for it: a pinned patch->rank map, a
    // hierarchy-wide dt, and a nonzero start time. Augment every valid
    // torture case with deterministic values of all three and prove the
    // cache contract still holds: exact round-trip, and a line distinct
    // from the un-augmented config's (each knob is load-bearing).
    let mut lines = std::collections::BTreeSet::new();
    let mut checked = 0u64;
    for id in 0..CASES {
        let case = TortureCase::generate(SEED, id);
        if case.corrupt.is_some() {
            continue;
        }
        let base_line = case.cfg.to_string();
        let mut cfg = case.cfg.clone();
        let patches = case.patches();
        cfg.assignment_override = Some(std::sync::Arc::new(
            (0..patches).map(|p| p % cfg.n_ranks).collect(),
        ));
        cfg.dt_override = Some(1.0 / (id + 2) as f64);
        cfg.t0 = id as f64 * 0.125;
        let line = cfg.to_string();
        assert_ne!(line, base_line, "case {id}: AMR knobs must reach the line");
        let parsed: RunConfig = line
            .parse()
            .unwrap_or_else(|e| panic!("case {id}: `{line}` failed to parse: {e}"));
        assert_eq!(parsed, cfg, "case {id}: AMR round-trip changed the config");
        assert_eq!(parsed.to_string(), line, "case {id}: unstable rendering");
        lines.insert(line);
        checked += 1;
    }
    assert_eq!(checked, 171, "corpus split drifted");
    // dt_override and t0 differ per id, so every augmented line is unique.
    assert_eq!(lines.len(), 171, "augmented lines must stay injective");
}

#[test]
fn canonical_lines_are_injective_over_the_corpus() {
    // canon line -> first case id that produced it; duplicate lines must
    // come from configs that are truly equal (the generator does repeat
    // draws), never from distinct configs colliding.
    let mut by_line: BTreeMap<String, (u64, RunConfig)> = BTreeMap::new();
    let mut by_key: BTreeMap<u128, String> = BTreeMap::new();
    for id in 0..CASES {
        let case = TortureCase::generate(SEED, id);
        let line = canonical_job(&case.level(), "burgers", &case.cfg);
        if let Some((prev_id, prev_cfg)) = by_line.get(&line) {
            assert!(
                same(prev_cfg, &case.cfg),
                "cases {prev_id} and {id} share a canonical line but differ"
            );
        } else {
            by_line.insert(line.clone(), (id, case.cfg));
        }
        // Distinct canonical lines must map to distinct 128-bit keys —
        // a collision here is exactly what the store's hard error guards.
        let key = fnv128(line.as_bytes());
        if let Some(prev_line) = by_key.get(&key) {
            assert_eq!(
                *prev_line, line,
                "fnv128 collision between different canonical lines"
            );
        } else {
            by_key.insert(key, line);
        }
    }
    assert!(
        by_line.len() > 100,
        "corpus should span many distinct configs"
    );
    assert_eq!(by_line.len(), by_key.len());
}

#[test]
fn non_canonical_spellings_are_rejected() {
    let line = TortureCase::generate(SEED, 0).cfg.to_string();
    // A leading zero in any integer token changes the bytes but not the
    // value; the strict parser must refuse it so no two spellings of the
    // same config can reach the cache under different keys.
    let padded = line.replacen("steps=", "steps=0", 1);
    assert_ne!(padded, line);
    assert!(
        padded.parse::<RunConfig>().is_err(),
        "non-canonical integer spelling must not parse"
    );
    // Truncated lines (missing tokens) are rejected too.
    let truncated = line.rsplit_once(' ').unwrap().0;
    assert!(truncated.parse::<RunConfig>().is_err());
}
