#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build/test pass.
#
#   ./ci.sh          # everything
#   ./ci.sh quick    # skip the release build (lints + tests only)
#
# Everything runs offline: external crates resolve to the stand-ins under
# shims/ (see shims/README.md).

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "quick" ]]; then
  step "cargo build --release (tier-1)"
  cargo build --release
fi

step "cargo test (tier-1; default-members is the whole workspace)"
cargo test -q

step "swbench self-test (benchmark/, --quick sizes)"
# The benchmark is a package of its own (path dependencies on the crates,
# its own Cargo.lock): a crate API change that breaks a probe, or a manifest
# edit that stales benchmark/Cargo.lock, fails here rather than at the next
# benchmark run.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

if [[ "${1:-}" != "quick" ]]; then
  step "swbench end to end (benchmark/run.sh all --quick)"
  # The release build and the run.sh entry point the benchmark itself uses:
  # all four workloads, untraced and traced. A run whose simulations or
  # checks fail exits non-zero here, before a benchmark run finds it. The
  # result files go to a throwaway directory.
  bash benchmark/run.sh all --quick --out "$(mktemp -d)"

  # Every repro stage gates itself: the campaign's `violations()` name the
  # failing cell on one `ERROR: repro <stage>: ...` stderr line and the
  # process exits non-zero. Each stage rewrites its artifact under results/.
  repro() { cargo run --release -p bench --bin repro -- "$@"; }

  step "static schedule verification (repro analyze)"
  # Any error-severity finding fails; writes results/ANALYZE.json.
  repro analyze

  step "telemetry trace export (repro trace)"
  # Every trace reconciles exactly with its RunReport, overlap efficiency
  # in [0,1], async hides strictly more than sync per kernel; writes
  # results/TRACE_*.perfetto.json and results/TIMELINE.json.
  repro trace --problem 16x16x512 --cgs 4 --steps 5 --variant acc_simd.async

  step "resilience campaign (repro faults)"
  # Byte-identity under recoverable faults across all Table IV variants,
  # kill + checkpoint-restart reconvergence, harsh-preset degradation;
  # writes results/FAULTS.json and results/ckpt/step*.ckpt.
  repro faults --seed 42

  step "torture campaign (repro torture)"
  # Fixed-seed differential config fuzzing: 200 random-but-valid configs
  # through the full oracle battery plus intentionally-corrupted configs
  # through the typed-rejection oracle, every oracle's coverage counted;
  # writes results/TORTURE.json with minimized repros.
  repro torture --seed 0 --cases 200

  step "adaptive-mesh campaign (repro amr)"
  # Fixed-vs-adaptive resolution economy, >= 2 mid-run regrids with every
  # recompiled plan re-verified, byte identity across execution policies,
  # checkpoint-restart across a regrid boundary, telemetry-driven
  # rebalancing; writes results/AMR.json and results/amr-ckpt/*.ckpt.
  repro amr --seed 42

  step "strong-scaling sweep (repro scale --quick)"
  # Serial vs conservative-PDES engine on the paper problem at 1/4/16 CGs:
  # bit identity per cell, monotone speedup, async no later than sync;
  # writes results/BENCH_scale.quick.json (git-ignored; the committed
  # results/BENCH_scale.json is a `repro scale --full` run).
  repro scale --quick

  step "concurrency checker (repro check)"
  # Static lookahead-safety proofs (plus the unsafe-lookahead demo agreeing
  # with the machine to the picosecond), the vector-clock race detector
  # over instrumented runs, and >= 50 DPOR interleavings bit-identical;
  # writes results/CHECK.json.
  repro check

  step "comm-layer sweep (repro comm)"
  # Endpoints x aggregation x eager/rendezvous crossover: every cell
  # byte-identical to the single-endpoint baseline, reconciled, proved safe
  # over the coalesced channels, canonical async overlap >= 0.800; writes
  # results/COMM.json.
  repro comm

  step "campaign service (repro serve, deterministic 64-job demo x2 + faulted)"
  # The same seeded 64-job demo campaign three times: cold cache, warm
  # cache, and cold again under the standard worker-fault preset. Each
  # serve fails on any lost/duplicated/failed job, oracle mismatch, or
  # malformed job line; writes results/CAMPAIGN_*.json.
  rm -rf results/cache_ci results/cache_ci_faulted
  repro serve --demo 64 --workers 4 --seed 42 \
    --cache results/cache_ci --out results/CAMPAIGN_run1.json
  repro serve --demo 64 --workers 2 --seed 42 \
    --cache results/cache_ci --out results/CAMPAIGN_run2.json
  repro serve --demo 64 --workers 4 --seed 42 --worker-faults standard \
    --cache results/cache_ci_faulted --out results/CAMPAIGN_faulted.json
  # Cross-run determinism: pool size, cache state and worker faults may
  # move the `service` counters, never a byte of the `records` block. The
  # committed run1 pins the canonical lines and cache keys themselves, so a
  # codec change that moved every key fails here too.
  records() { sed '/^  "service": {$/,$d' "$1"; }
  cmp <(records <(git show HEAD:results/CAMPAIGN_run1.json)) <(records results/CAMPAIGN_run1.json) \
    || { echo "ci.sh: CAMPAIGN_run1.json records differ from the committed ones"; exit 1; }
  for other in run2 faulted; do
    cmp <(records results/CAMPAIGN_run1.json) <(records "results/CAMPAIGN_$other.json") \
      || { echo "ci.sh: CAMPAIGN_$other.json records differ from run1"; exit 1; }
  done

  step "byte identity of the deterministic artifacts"
  # Everything above except the wall-clock files (BENCH_scale.json, the
  # campaigns' service blocks) must regenerate byte-for-byte as committed.
  git diff --exit-code --stat -- \
    results/ANALYZE.json results/AMR.json results/CHECK.json results/COMM.json \
    results/FAULTS.json results/TORTURE.json results/TIMELINE.json \
    'results/TRACE_*.perfetto.json' results/ckpt results/amr-ckpt \
    || { echo "ci.sh: a deterministic artifact under results/ changed"; exit 1; }
fi

echo
echo "ci.sh: all green"
