#!/usr/bin/env bash
# Build swbench (release, offline) and run one workload, or all four.
#
#   benchmark/run.sh <workload|all> [--seed N] [--seconds S] [--trace] [--quick] [--out DIR]
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The second form is the one BENCHMARK.json's `command` is run with. Prints
# every metric as `name value unit`; the last line of standard output is the
# result object of the (last) run. `all` runs each workload end to end and
# then traced, back to back.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workload=""
trace=0
out="$here/out"
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
        --trace)
            # `--trace 0|1` (driver form) or a bare `--trace`.
            case "${2:-}" in
                0|1) trace="$2"; shift 2 ;;
                *) trace=1; shift ;;
            esac ;;
        --out) out="${2:?--out needs a directory}"; shift 2 ;;
        --seed|--seconds) pass+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
        --quick) pass+=("$1"); shift ;;
        -*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
        *) workload="$1"; shift ;;
    esac
done
if [ -z "$workload" ]; then
    sed -n '2,11p' "${BASH_SOURCE[0]}" >&2
    exit 2
fi

# Always an optimised build, always from the sources beside this script:
# swbench itself refuses to time a debug build.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/swbench"

commit="$(git -C "$here" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"

# swbench keeps its stores and checkpoints in out/tmp-<its pid> and removes
# the directory when it ends; if it is killed, this does it.
child=""
cleanup() {
    if [ -n "$child" ]; then
        kill "$child" 2>/dev/null || true
        wait "$child" 2>/dev/null || true
        rm -rf "$out/tmp-$child"
    fi
}
trap cleanup EXIT
trap 'exit 130' INT TERM

run_one() {
    "$bin" run --workload "$1" --trace "$2" --out "$out" --commit "$commit" "${pass[@]}" &
    child=$!
    local status=0
    wait "$child" || status=$?
    rm -rf "$out/tmp-$child"
    child=""
    return "$status"
}

if [ "$workload" = all ]; then
    status=0
    for w in model-scale functional-burgers traced-comm campaign-mixed; do
        for t in 0 1; do
            echo "== $w (trace $t)"
            run_one "$w" "$t" || status=$?
        done
    done
    exit "$status"
fi
run_one "$workload" "$trace"
