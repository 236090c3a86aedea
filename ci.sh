#!/usr/bin/env bash
# Offline CI gate for the nest reproduction workspace.
#
# The one definition of the CI gate: .github/workflows/ci.yml only checks
# out, restores the cargo cache, and runs this script. Checks run in
# order of increasing cost, stopping at the first failure. No step needs
# network access: the workspace has no external dependencies and no
# cargo features (the property tests run on the in-tree `SimRng`
# generator).
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo fmt --all -- --check
step cargo clippy --workspace --all-targets --release -- -D warnings
step cargo build --workspace --release
step cargo test --workspace --release -q
# The tier-1 test command, in a debug build: the engine's and the fleet's
# debug_assert!s (time never goes backwards, no placement on a dead core,
# every offered request settles once) and overflow checks only run here.
step cargo test -q --offline
# rustdoc is the only checker for doc syntax and intra-doc links, and
# nest-simcore/nest-sched/nest-scenario carry #![deny(missing_docs)].
RUSTDOCFLAGS="-D warnings" step cargo doc --workspace --no-deps --release

# The scenario CLI: the registries list cleanly and an arbitrary
# non-figure combination runs end to end.
step cargo run --release -q -p nest-bench --bin nest-sim -- list
NEST_CACHE=off NEST_PROGRESS=0 NEST_RESULTS_DIR="$(mktemp -d)" \
    step cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 5220 --policy smove --governor performance \
    --workload schbench:mt=2,w=2,requests=5 --runs 2

# Determinism across worker counts: a quick figure writes the same
# artifact bytes with two workers as with one.
detdir="$(mktemp -d)"
detenv=(NEST_QUICK=1 NEST_SEED=5 NEST_CACHE=off NEST_PROGRESS=0)
step env "${detenv[@]}" NEST_JOBS=2 NEST_RESULTS_DIR="$detdir/j2" \
    cargo run --release -q -p nest-bench --bin fig05_configure_speedup
step env "${detenv[@]}" NEST_JOBS=1 NEST_RESULTS_DIR="$detdir/j1" \
    cargo run --release -q -p nest-bench --bin fig05_configure_speedup
step cmp "$detdir/j2/fig05_configure_speedup.json" "$detdir/j1/fig05_configure_speedup.json"

# Robustness: a faulted scenario runs end to end through the CLI
# (exiting non-zero on any cell failure or invariant violation). The
# chaos soak itself runs with the workspace tests above.
NEST_CACHE=off NEST_PROGRESS=0 NEST_RESULTS_DIR="$(mktemp -d)" \
    step cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 6130-4 --policy cfs --policy nest --governor schedutil \
    --workload configure:gdb,tests=40 --runs 2 \
    --faults "hotplug=8@50ms:200ms,throttle=s0:0.8"

# Decision observability: `trace` exports Chrome trace-event JSON and
# re-parses it with the in-tree codec before writing (a failing parse
# exits non-zero), `stats` prints the decision-metrics table.
obsdir="$(mktemp -d)"
step cargo run --release -q -p nest-bench --bin nest-sim -- \
    trace --machine 5218 --policy nest --governor schedutil \
    --workload configure:gdb,tests=40 --out "$obsdir/trace.json" \
    --window 0:2 --events run,placement,nest
step test -s "$obsdir/trace.json"
step cargo run --release -q -p nest-bench --bin nest-sim -- \
    stats --machine 5218 --policy nest --governor schedutil \
    --workload configure:gdb,tests=40

# The serving lens: an open-loop `serve:` stream runs end to end through
# the CLI and reports its tail-latency/SLO metrics.
NEST_CACHE=off NEST_PROGRESS=0 NEST_RESULTS_DIR="$(mktemp -d)" \
    step cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 5218 --policy cfs --policy nest --governor schedutil \
    --workload serve:rate=400,requests=200,dist=lognorm,slo=2ms --runs 2
step cargo run --release -q -p nest-bench --bin nest-sim -- \
    stats --machine 5218 --policy nest --governor schedutil \
    --workload serve:rate=400,requests=200,dist=lognorm

# Latency attribution + telemetry diff: `stats --json` carries the
# phase-breakdown block, two identical runs' telemetry self-compare
# with zero deltas (exit 0), and a perturbed run must trip the
# regression threshold (non-zero exit).
diffdir="$(mktemp -d)"
diffenv=(NEST_CACHE=off NEST_PROGRESS=0)
step env "${diffenv[@]}" NEST_RESULTS_DIR="$diffdir/a" \
    cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 5218 --policy nest --governor schedutil \
    --workload serve:rate=400,requests=200,dist=lognorm,slo=2ms --out d
step env "${diffenv[@]}" NEST_RESULTS_DIR="$diffdir/b" \
    cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 5218 --policy nest --governor schedutil \
    --workload serve:rate=400,requests=200,dist=lognorm,slo=2ms --out d
step env "${diffenv[@]}" NEST_RESULTS_DIR="$diffdir/c" \
    cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 5218 --policy cfs --governor schedutil \
    --workload serve:rate=1600,requests=200,dist=lognorm,slo=2ms --out d
echo
echo "==> nest-sim stats --json carries the phase-breakdown block"
cargo run --release -q -p nest-bench --bin nest-sim -- \
    stats --machine 5218 --policy nest --governor schedutil \
    --workload serve:rate=400,requests=200,dist=lognorm --json \
    > "$diffdir/stats.json"
step grep -q '"phase_metrics"' "$diffdir/stats.json"
step cargo run --release -q -p nest-bench --bin nest-sim -- \
    diff "$diffdir/a/d.telemetry.json" "$diffdir/b/d.telemetry.json"
if cargo run --release -q -p nest-bench --bin nest-sim -- \
    diff "$diffdir/a/d.telemetry.json" "$diffdir/c/d.telemetry.json" \
    --threshold 5 >/dev/null; then
    echo "ERROR: perturbed telemetry diff reported no regression" >&2
    exit 1
fi
echo "==> telemetry self-compare clean; perturbed diff trips the gate"

# Snapshot/replay equivalence and the refusal of a corrupted snapshot
# are checked by the workspace tests (crates/bench/tests/replay_cli.rs).

# Harness warm-start: a figure run with NEST_WARM_START (first pass
# snapshots, second pass restores) must write the same artifact bytes
# as a cold run, while its telemetry records the warm hits.
warmdir="$(mktemp -d)"
warmenv=(NEST_QUICK=1 NEST_SEED=42 NEST_RUNS=1 NEST_CACHE=off NEST_PROGRESS=0)
step env "${warmenv[@]}" NEST_RESULTS_DIR="$warmdir/cold" \
    cargo run --release -q -p nest-bench --bin fig04_underload
step env "${warmenv[@]}" NEST_RESULTS_DIR="$warmdir/warm1" \
    NEST_WARM_START=0.05 NEST_CACHE_DIR="$warmdir/cache" \
    cargo run --release -q -p nest-bench --bin fig04_underload
step env "${warmenv[@]}" NEST_RESULTS_DIR="$warmdir/warm2" \
    NEST_WARM_START=0.05 NEST_CACHE_DIR="$warmdir/cache" \
    cargo run --release -q -p nest-bench --bin fig04_underload
step cmp "$warmdir/cold/fig04_underload.json" "$warmdir/warm1/fig04_underload.json"
step cmp "$warmdir/cold/fig04_underload.json" "$warmdir/warm2/fig04_underload.json"
step grep -q '"warm_start": true' "$warmdir/warm2/fig04_underload.telemetry.json"
if grep -q '"cells_warm": 0,' "$warmdir/warm2/fig04_underload.telemetry.json"; then
    echo "ERROR: second warm-start pass restored no snapshots" >&2
    exit 1
fi
echo "==> warm-start artifacts byte-identical; second pass restored snapshots"

# Hierarchical domains: a 512-core synthetic multi-CCX machine runs end
# to end under every policy including the domain-local Nest.
NEST_CACHE=off NEST_PROGRESS=0 NEST_RESULTS_DIR="$(mktemp -d)" \
    step cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine "synth:sockets=4,ccx=8,cores=16,numa=ring" \
    --policy cfs --policy nest --policy "nest:domain=ccx" --policy smove \
    --governor schedutil --workload "schbench:mt=32,w=15,requests=20" --runs 1

# Byte-identity guard: fig02/fig04/fig10/table4/fig_serve_tail/
# fig_attribution/fig_scale/faulted/synth/replay artifacts vs committed
# golden hashes.
step ./scripts/verify_artifacts.sh

# Exact work counts: one traced perfbench round per workload at seed 42
# must reproduce every digest and exact count in perfbench/expected.json
# (exits non-zero on any drift). Wall-clock regressions are judged by
# the benchmark's own runs, not here.
step cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- \
    --seed 42 --seconds 0 --trace 1
# The benchmark's own tests (a workspace of their own, so the workspace
# test step above never reaches them): they drive the simulator crates.
step cargo test --quiet --offline --release --manifest-path perfbench/Cargo.toml

echo
echo "==> CI gate passed"
