#!/usr/bin/env bash
# The benchmark's one command. Run it from the root of the checkout.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       builds tagger-perf (release, offline) and runs one workload in a
#       fresh process; the last line of standard output is the JSON
#       record the benchmark driver reads.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       the full set: checks formatting and lints, then runs every
#       workload twice in its own process — untraced for the end-to-end
#       metrics, traced for the per-layer ones — prints every metric by
#       name with its unit, and leaves benchmark/out/results-seed<N>.json
#       for `tagger-perf compare`.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
cd "$here/.."
manifest=$here/Cargo.toml

export TAGGER_PERF_GIT_REV=${TAGGER_PERF_GIT_REV:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}
export TAGGER_PERF_RUSTC=${TAGGER_PERF_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}

# Build output goes to standard error: standard output carries results.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin=${CARGO_TARGET_DIR:-$here/target}/release/tagger-perf

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@"
    fi
done

seed=1
seconds=20
while [ $# -gt 0 ]; do
    case $1 in
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done

began=$(date +%s)
cargo fmt --manifest-path "$manifest" --check >&2
cargo clippy --release --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings >&2

out=benchmark/out/results-seed$seed.json
rm -f "$out"
# A journal directory left by an interrupted run is the only thing a
# finished one does not remove itself.
trap 'rm -rf benchmark/out/journal-*' EXIT
status=0
for workload in epoch-clos-b1 ingest-storm plan-jellyfish sim-incast sim-permutation; do
    for trace in 0 1; do
        log=$("$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$out") || status=1
        printf '%s\n' "$log" | sed '$d'
        case $(printf '%s\n' "$log" | tail -n 1) in
            *'"correct": true'*) ;;
            *) echo "run.sh: $workload (trace $trace) did not check out" >&2; status=1 ;;
        esac
    done
done
echo "results in $out; total wall time $(( $(date +%s) - began )) s"
exit $status
