#!/usr/bin/env bash
# Perf smoke gate for the zero-allocation training hot path.
#
# 1. Runs the counting-allocator tests: a steady-state training batch, and
#    a warm cache-hit text on the two-shard serving parse path (route,
#    resolve, cache probe), must each perform exactly zero heap allocations.
# 2. Runs the smoke pipeline bench with alloc-stats compiled in and checks
#    the speedup legs: every arena leg reports 0 allocations per batch, the
#    fresh-alloc reference leg reports plenty, and the pooled train loop has
#    not regressed past 1.2x the fresh-alloc leg measured in the same run
#    (a same-machine baseline, so the gate is load-independent).
#
# Usage: scripts/perf_smoke.sh
set -euo pipefail

echo "== zero-allocation steady state =="
cargo test --release -p edge-core --features alloc-stats --test zero_alloc \
    -- --test-threads=1
cargo test --release -p edge-bench --features alloc-stats --test zero_alloc_parse \
    -- --test-threads=1

echo "== speedup legs =="
cargo run --release -p edge-bench --features alloc-stats --bin bench_pipeline \
    -- --size smoke

python3 - <<'EOF'
import json

out = json.load(open("results/BENCH_pipeline.json"))
legs = {l["label"]: l for l in out["edge_speedup"]["legs"]}
assert set(legs) == {
    "serial (1 thread)", "fresh-alloc (no arena)", "persistent pool",
    "scalar kernels",
}, sorted(legs)

for label in ("serial (1 thread)", "persistent pool", "scalar kernels"):
    allocs = legs[label]["allocs_per_batch"]
    assert allocs == 0, f"{label}: {allocs} allocations per steady-state batch"
fresh = legs["fresh-alloc (no arena)"]
assert fresh["allocs_per_batch"] > 0, "counting allocator measured nothing"

pooled_secs = legs["persistent pool"]["train_secs"]
fresh_secs = fresh["train_secs"]
assert pooled_secs <= 1.2 * fresh_secs, (
    f"arena train loop regressed: {pooled_secs:.2f}s pooled vs "
    f"{fresh_secs:.2f}s fresh-alloc baseline"
)
print(f"perf smoke OK: 0 allocs/batch on arena legs "
      f"({fresh['allocs_per_batch']} fresh), "
      f"arena speedup {out['edge_speedup']['arena_speedup']:.2f}x")
EOF
