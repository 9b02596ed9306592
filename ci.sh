#!/usr/bin/env bash
# Tier-1 gate plus the hermetic-build invariant: everything must build
# and test with --offline, i.e. with zero access to crates.io. See
# README "CI gates" and "Hermetic builds".
set -euo pipefail
cd "$(dirname "$0")"

# Per-stage wall-clock timings, written as machine-readable JSON
# (CI_TIMINGS.json) once every gate is green.
TIMING_NAMES=()
TIMING_SECS=()

# Run a stage: `run <label> <command...>` echoes the full command, times
# it, and records the label for CI_TIMINGS.json.
run() {
    local label=$1
    shift
    echo "==> $*"
    local start=$SECONDS
    "$@"
    local secs=$(( SECONDS - start ))
    echo "    (${label} took ${secs}s)"
    TIMING_NAMES+=("$label")
    TIMING_SECS+=("$secs")
}

# Hand-rolled JSON, mirroring the BenchReport writer: no external
# dependencies, stable key order, one stage object per line.
write_timings() {
    local out=CI_TIMINGS.json
    {
        echo '{'
        echo '  "version": "sno-ci-timings-v1",'
        echo '  "stages": ['
        local i last=$(( ${#TIMING_NAMES[@]} - 1 ))
        for i in "${!TIMING_NAMES[@]}"; do
            local comma=','
            (( i == last )) && comma=''
            printf '    {"stage": "%s", "seconds": %s}%s\n' \
                "${TIMING_NAMES[$i]}" "${TIMING_SECS[$i]}" "$comma"
        done
        echo '  ]'
        echo '}'
    } > "$out"
    echo "wrote $out"
}

run build cargo build --release --offline
# Test stage, under an allocation ceiling: the unit and integration
# tests run under a 2 GiB address-space limit, so a caller-sized
# `with_capacity` that asks for far more than its input (the class
# behind the codec's 48 GiB reservation at `chunk_len = 1 << 30`)
# aborts here even on a kernel that overcommits. The suite passes at
# 768 MiB with two test threads and two malloc arenas; both are pinned
# so the address space does not scale with the core count. The build
# runs first and the ulimit lives in a child shell, so the compiler is
# not limited; doctests run last, unlimited, because rustdoc compiles
# them.
run test bash -c \
    'cargo test -q --offline --workspace --lib --bins --tests --no-run &&
     (ulimit -v 2097152; RUST_TEST_THREADS=2 MALLOC_ARENA_MAX=2 \
      exec cargo test -q --offline --workspace --lib --bins --tests) &&
     cargo test -q --offline --workspace --doc'
run examples cargo build --examples --offline
run benches cargo build --benches --offline -p sno-bench
run fmt cargo fmt --check
run clippy cargo clippy --offline --workspace --all-targets -- -D warnings

# Lint gate: the in-tree determinism & hermeticity pass (sno-lint).
# Fails on any diagnostic not excused by a justified allow pragma, and
# ratchets the justified-suppression ledger: the machine-readable report
# lands in target/lint-report.json (gitignored) and its per-rule counts
# are diffed against the committed tests/corpora/lint_baseline.json —
# any increase fails the stage and prints the delta. Shrinking a count
# is fine; re-bless by regenerating the baseline with `sno-lint --json`.
run lint bash -c \
    'cargo run --release --offline -p sno-lint --bin sno-lint -- \
         --json --baseline tests/corpora/lint_baseline.json \
         > target/lint-report.json'

# Perf gate: diff the two newest committed BENCH_N.json trajectory
# snapshots and fail on >20% median regressions (repro --bench-diff),
# after dividing out the machine-speed drift the calibration/spin
# bench measures (snapshots land on whatever box CI gets; baselines
# without the calibration bench are compared advisorily only). The
# same pass enforces the absolute per-bench budgets (fig4a must stay
# under 100 ms) against the newest snapshot, so ten successive
# just-under-20% regressions cannot quietly compound past the ceiling.
# Throughput benches (sessions/second) gate on the same pass but in
# the other direction: they fail when the drift-corrected rate drops
# more than 20%. Skipped until at least two snapshots exist.
mapfile -t snapshots < <(ls BENCH_*.json 2>/dev/null | sort -V)
if (( ${#snapshots[@]} >= 2 )); then
    run perf-gate cargo run --release --offline -p sno-bench --bin repro -- \
        --bench-diff "${snapshots[-2]}" "${snapshots[-1]}"
else
    echo "==> perf gate skipped (fewer than two BENCH_*.json snapshots)"
fi

# Online-equivalence gate: drive the corpus chunk-by-chunk through the
# incremental OnlineIdentifier, then run the batch streamed pipeline
# over the same corpus and fail on any verdict mismatch (acceptance
# bits, catalog, thresholds, per-operator latencies, rendered report).
# Also snapshots again after compact() and fails if the compacted log
# diverges from the batch run. The steady-state snapshot latency itself
# is budgeted in the perf gate above: BUDGETS in repro.rs caps
# online_snapshot_steady (the incremental, post-warm-up snapshot) at an
# absolute ceiling, so snapshot() silently regressing back to
# O(corpus) full replay fails CI even without a baseline to diff.
run online-gate cargo run --release --offline -p sno-bench --bin repro -- \
    --online --verify-batch --scale 2e-3

# Sim gate: the deterministic fault-injection campaign. Replays the
# committed failure corpus first, then SNO_CI_SEEDS fresh seeds; any
# failure prints a `repro --sim-sweep --seed <S>` replay line.
run sim-gate cargo run --release --offline -p sno-bench --bin repro -- \
    --sim-sweep --seeds "${SNO_CI_SEEDS:-32}" --quick

# Memory gate: the streamed pipeline must stay bounded at a dense
# corpus. The ceiling (24 MiB of address space) is ~2x the streamed
# run's measured peak and well below the ~35 MiB the materialized path
# needs at this scale, so accidentally materializing the corpus inside
# the streamed path trips the limit. ulimit lives in the child shell
# so it does not leak into later stages.
run memory-gate bash -c \
    'ulimit -v 24576; exec ./target/release/repro table1 --scale 2e-2 --chunk 4096 >/dev/null'

# Paper-scale gate: the streamed pipeline drives a paper-sized corpus
# end to end — chunked generation, parallel two-pass identification,
# heartbeats for liveness — under a wall-clock budget (timeout) and an
# address-space ceiling sized at ~2x the measured run (see README "CI
# gates" for the numbers). Routine CI runs SNO_CI_SCALE=1e-1 (measured
# 113 s wall / 40 MB address-space peak on the 1-core reference box);
# nightly runs the full paper volume (measured 1107 s / 278 MB) with
#   SNO_CI_SCALE=1 SNO_CI_BUDGET_S=2400 SNO_CI_ULIMIT_KB=573440 ./ci.sh
SNO_CI_SCALE="${SNO_CI_SCALE:-1e-1}"
SNO_CI_BUDGET_S="${SNO_CI_BUDGET_S:-600}"
SNO_CI_ULIMIT_KB="${SNO_CI_ULIMIT_KB:-81920}"
run paper-scale-gate bash -c \
    "ulimit -v ${SNO_CI_ULIMIT_KB}; exec timeout ${SNO_CI_BUDGET_S} \
     ./target/release/repro table1 --scale ${SNO_CI_SCALE} --chunk 4096 --progress 2000000 >/dev/null"

write_timings
echo "ci: all green (hermetic)"
