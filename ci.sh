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

  # The paper and campaign artifacts: every tracked file under results/ is
  # deleted, the stages below write them again, and the last step fails on
  # any difference from the index (a file no stage wrote, a changed byte, a
  # stray file). Stage an intended artifact change with `git add results`;
  # `git checkout -- results` restores the committed files. `repro` also
  # gates each stage: a broken invariant in its `violations()` is one
  # `ERROR: repro <stage>: ...` stderr line and a non-zero exit.
  repro() {
    step "repro $*" >&2
    cargo run -q --release -p bench --bin repro -- "$@"
  }
  git ls-files -z -- results | xargs -0 rm -f
  rm -rf results/cache_ci results/cache_ci_faulted

  # Every problem x variant plan through the static schedule verifier.
  repro analyze
  # Traces that reconcile with their RunReport, async hiding more than sync.
  repro trace --problem 16x16x512 --cgs 4 --steps 5 --variant acc_simd.async
  # Byte identity under recoverable faults, kill + checkpoint restart.
  repro faults --seed 42
  # 200 seeded configs through every oracle, corrupted ones rejected.
  repro torture --seed 0 --cases 200
  # Fixed vs adaptive grids, regrids re-verified, restart across a regrid.
  repro amr --seed 42
  # Serial vs PDES engine at 1..1024 CGs, bit identical per cell.
  repro scale
  # Lookahead proofs, the race detector, >= 50 DPOR interleavings.
  repro check
  # Endpoints x aggregation x crossover, identical to one endpoint.
  repro comm
  # The seeded 64-job demo campaign cold, warm, and cold under worker
  # faults. Pool size, cache state and faults may move the `service`
  # counters, never a byte of the `records` block.
  repro serve --demo 64 --workers 4 --seed 42 \
    --cache results/cache_ci --out results/CAMPAIGN_run1.json
  repro serve --demo 64 --workers 2 --seed 42 \
    --cache results/cache_ci --out results/CAMPAIGN_run2.json
  repro serve --demo 64 --workers 4 --seed 42 --worker-faults standard \
    --cache results/cache_ci_faulted --out results/CAMPAIGN_faulted.json
  records() { sed '/^  "service": {$/,$d' "$1"; }
  for other in run2 faulted; do
    cmp <(records results/CAMPAIGN_run1.json) <(records "results/CAMPAIGN_$other.json") \
      || { echo "ci.sh: CAMPAIGN_$other.json records differ from run1"; exit 1; }
  done
  # Job lines through the parser, which the demo jobs never reach: every
  # job key at least once, and the three line shapes of swbench's
  # campaign-mixed batch.
  repro serve --stdin --demo 0 --no-cache --workers 2 --out "$(mktemp -d)/jobs.json" <<'JOBS'
{"patch": "3x4x2", "layout": "2x1x1", "variant": "acc.sync", "lb": "rr", "steps": 2, "ranks": 1, "machine": "tiny"}
{"patch": "16x16x16", "layout": "2x2x1", "variant": "acc_simd.async", "lb": "morton", "steps": 2, "ranks": 4, "machine": "sw26010", "faults": "standard", "fault_seed": 1001}
{"patch": "16x16x512", "layout": "8x8x2", "variant": "acc_simd.async", "exec": "model", "lb": "hilbert", "steps": 10, "ranks": 8, "machine": "sw26010", "pdes": true, "pdes_threads": 1}
{"variant": "acc_simd.async", "exec": "functional", "exec_threads": 2, "cpe_groups": 2, "ckpt_every": 1, "faults": "none"}
JOBS
  # The paper's tables and figures. README.md and EXPERIMENTS.md promise
  # the same bytes at any pool size: the pool only fills the runner's cache.
  repro all --jobs 2 --csv results/csv > results/repro_all.txt
  repro all --jobs 1 | cmp - results/repro_all.txt \
    || { echo "ci.sh: repro all output differs between --jobs 1 and --jobs 2"; exit 1; }

  step "results/ regenerated exactly as in the index"
  changed=$(git status --porcelain --untracked-files=all -- results | grep -v '^. ' || true)
  if [[ -n "$changed" ]]; then
    printf '%s\n' "$changed"
    echo "ci.sh: results/ differs from the index (D: no stage wrote it, M: modified, ??: untracked)"
    exit 1
  fi
fi

echo
echo "ci.sh: all green"
