#!/usr/bin/env bash
# The repo's benchmark, one command. Builds the shipped server binaries and
# the load generator, runs workloads against them, checks answers, prints
# every metric by name with its unit. See benchmark/README.md.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One run of one workload (the form BENCHMARK.json's command takes).
#       The last line of standard output is the result as one JSON object.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat K] [--smoke]
#       A full set: every workload, untraced then traced. --repeat 2 runs
#       two sets and compares them; --smoke runs at 1/20 of the length with
#       the answer check on.
#
# Exits non-zero when a build fails, an operation fails, or (with --repeat)
# the second set is worse than the first by more than a metric's bound.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
WORKLOADS=(flights_mono no2d_wire flights_cluster flights_live)

workload="" seed=1 seconds="" trace=0 repeat=1 smoke=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --repeat) repeat="$2"; shift 2 ;;
        --smoke) smoke=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

if [ ! -f "$ROOT/Cargo.toml" ] || [ ! -d "$ROOT/crates/server" ]; then
    echo "run.sh: $ROOT holds no EntropyDB workspace to build and measure" >&2
    exit 2
fi

# Build settings change speed without changing code: the load generator must
# be built exactly like the program it drives.
release_profile() {
    awk '/^\[profile\.release\]/ {on=1; next} /^\[/ {on=0} on && NF' "$1"
}
if [ "$(release_profile "$ROOT/Cargo.toml")" != "$(release_profile "$HERE/Cargo.toml")" ]; then
    echo "run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
    exit 2
fi

# One target directory when the caller names one (resolved against the
# repository root, where cargo runs); otherwise each workspace's own.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$ROOT/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    root_target="$CARGO_TARGET_DIR" bench_target="$CARGO_TARGET_DIR"
else
    root_target="$ROOT/target" bench_target="$HERE/target"
fi
(cd "$ROOT" && cargo build --release --offline -p entropydb-server) >&2
(cd "$ROOT" && cargo build --release --offline --manifest-path "$HERE/Cargo.toml") >&2
bin="$bench_target/release/entropydb-benchmark"
work="$HERE/target"
mkdir -p "$work/results"

rev="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
dirty=0
if [ "$rev" != unknown ] && [ -n "$(git -C "$ROOT" status --porcelain 2>/dev/null)" ]; then
    dirty=1
fi

run_seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$ROOT/BENCHMARK.json" 2>/dev/null | head -n 1)"
: "${seconds:=${run_seconds:-10}}"
if [ "$smoke" = 1 ]; then
    seconds="$(awk -v s="$seconds" 'BEGIN { print s / 20 }')"
fi

one_run() { # workload trace [out]
    "$bin" run --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" \
        --bin-dir "$root_target/release" --work-dir "$work" \
        --git-rev "$rev" --git-dirty "$dirty" ${3:+--out "$3"}
}

if [ -n "$workload" ]; then
    one_run "$workload" "$trace"
    exit $?
fi

status=0
sets=()
stamp="$(date +%Y%m%dT%H%M%S)"
for k in $(seq 1 "$repeat"); do
    out="$work/results/set-$stamp-$k.jsonl"
    : > "$out"
    sets+=("$out")
    for w in "${WORKLOADS[@]}"; do
        for t in 0 1; do
            one_run "$w" "$t" "$out" | sed '$d' || status=1
        done
    done
    echo "set $k written to $out"
done
if [ "$repeat" -ge 2 ]; then
    "$bin" compare "${sets[0]}" "${sets[1]}" || status=1
fi
exit $status
