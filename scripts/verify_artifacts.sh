#!/usr/bin/env bash
# Byte-identity guard: regenerate representative artifacts (Figures 2,
# 4 and 10, Table 4, the serve tail sweep, the latency-attribution
# sweep, the fleet failover figure, the 256-core scaling sweep, a
# faulted run, a synthetic-machine run, and a snapshot/replay
# continuation) in quick mode and compare their hashes against the
# committed golden set, along with `nest-sim stats --json` of a served
# fleet and the deterministic part of five telemetry sidecars.
#
# The harness's determinism contract says artifact bytes depend only on
# the seed and the simulation inputs — never on worker count, cache
# state, or host. This script pins that contract in CI: any change to
# the simulator, the registries, or the seed derivation that shifts a
# result byte shows up as a hash mismatch. Intentional changes must
# regenerate the golden file (instructions printed on failure).
#
# Usage: ./scripts/verify_artifacts.sh [--update]
set -euo pipefail
cd "$(dirname "$0")/.."

golden="scripts/golden_artifacts.sha256"
outdir="$(mktemp -d)"
trap 'rm -rf "$outdir"' EXIT

export NEST_QUICK=1 NEST_RUNS=1 NEST_SEED=42 NEST_CACHE=off
export NEST_PROGRESS=0 NEST_RESULTS_DIR="$outdir"
unset NEST_JOBS 2>/dev/null || true

for bin in fig02_trace fig04_underload fig10_dacapo_speedup table4_overview fig_serve_tail fig_attribution fig_fleet_failover fig_scale; do
    echo "==> regenerating $bin (quick mode)"
    cargo run --release -q -p nest-bench --bin "$bin" >/dev/null
done

# A fault-enabled scenario rides along: fault injection must be exactly
# as deterministic as the fault-free path (and must never shift the
# fault-free hashes above, which predate fault support).
echo "==> regenerating faulted_pin (nest-sim run --faults)"
cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 5218 --policy cfs --policy nest --governor schedutil \
    --workload configure:gdb --runs 2 \
    --faults "hotplug=8@50ms:200ms,throttle=s0:0.8,jitter=50us" \
    --out faulted_pin >/dev/null

# A synthetic multi-CCX machine rides along (PR 8): the domain-sharded
# scan structures and the CCX-scoped turbo ladders must be exactly as
# deterministic as the Table 2/3 presets above (whose hashes predate
# hierarchical domains and must never move).
echo "==> regenerating synth_pin (nest-sim run on a 256-core synth machine)"
cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine "synth:sockets=4,ccx=8,cores=8,numa=ring" \
    --policy cfs --policy nest --policy "nest:domain=ccx" --policy smove \
    --governor schedutil --workload "schbench:mt=16,w=15,requests=20" \
    --runs 2 --out synth_pin >/dev/null

# A replay continuation rides along too: pausing at a midpoint,
# snapshotting, and continuing must keep producing the same artifact
# bytes as the straight runs above keep producing theirs.
echo "==> regenerating replay_pin (nest-sim replay --at)"
cargo run --release -q -p nest-bench --bin nest-sim -- \
    replay --at 0.05 --snap "$outdir/replay_pin.snap" \
    --machine 5218 --policy nest --governor schedutil \
    --workload configure:gdb --seed 42 --out replay_pin >/dev/null

# `nest-sim stats --json` of a served fleet rides along: its decision,
# serve, phase and fleet blocks come from the same fold and serializer
# as the telemetry sidecars below.
echo "==> regenerating stats_pin (nest-sim stats --json on a served fleet)"
cargo run --release -q -p nest-bench --bin nest-sim -- \
    stats --machine 5218 --policy nest --governor schedutil --runs 2 \
    --workload "fleet:hosts=2,lb=warmth,retry=1,timeout=50ms,hedge=p95,hostdown=1@50ms:50ms+serve:rate=2000,dist=lognorm,requests=300" \
    --json > "$outdir/stats_pin.json"

# Telemetry sidecars are pinned too, minus the three host-dependent
# lines (worker count, wall-clock, throughput): everything else in them
# is a deterministic fold over the simulated cells.
mkdir -p "$outdir/telemetry"
for name in fig02_trace fig04_underload fig_attribution fig_fleet_failover faulted_pin; do
    grep -vE '^\s*"(jobs|wall_s|events_per_sec)":' "$outdir/$name.telemetry.json" \
        > "$outdir/telemetry/$name.telemetry.json"
done

{
    (cd "$outdir" && sha256sum fig02_trace.json fig04_underload.json \
        fig10_dacapo_speedup.json table4_overview.json fig_serve_tail.json \
        fig_attribution.json faulted_pin.json synth_pin.json replay_pin.json \
        fig_fleet_failover.json stats_pin.json fig_scale.json)
    (cd "$outdir/telemetry" && sha256sum fig02_trace.telemetry.json \
        fig04_underload.telemetry.json fig_attribution.telemetry.json \
        fig_fleet_failover.telemetry.json faulted_pin.telemetry.json)
} > "$outdir/actual.sha256"

if [[ "${1:-}" == "--update" ]]; then
    cp "$outdir/actual.sha256" "$golden"
    echo "==> updated $golden"
    cat "$golden"
    exit 0
fi

if diff -u "$golden" "$outdir/actual.sha256"; then
    echo "==> artifact bytes match the golden hashes"
else
    echo >&2
    echo "ERROR: artifact bytes drifted from $golden." >&2
    echo "If the change is intentional (a simulation-behaviour change)," >&2
    echo "regenerate with: ./scripts/verify_artifacts.sh --update" >&2
    exit 1
fi
