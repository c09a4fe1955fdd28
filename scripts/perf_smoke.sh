#!/usr/bin/env bash
# Perf smoke gate for the zero-allocation training hot path.
#
# 1. Runs the counting-allocator tests: a steady-state training batch, a
#    warm cache-hit text on the two-shard serving parse path (route,
#    resolve, cache probe), and a steady-state Eq. 14 mode search on a
#    4-component mixture must each perform exactly zero heap allocations.
# 2. Runs the smoke pipeline bench with alloc-stats compiled in and checks
#    the speedup legs: every arena leg reports 0 allocations per batch, the
#    fresh-alloc reference leg reports plenty, and the pooled train loop has
#    not regressed past 1.2x the fresh-alloc leg measured in the same run
#    (a same-machine baseline, so the gate is load-independent).
# 3. Checks that an Adam step over first moments stuck at subnormal values
#    costs at most 2x a step over normal ones (`adam_subnormal`): the
#    first-moment arithmetic runs through f64, and a compiler that narrowed
#    it back to f32 would bring back the ~12x subnormal assists.
# 4. Checks that the AVX-512F register tile earns its width: on a host
#    with AVX-512F, the dense matmul at that level runs at least 1.3x the
#    AVX2 level's GFLOP/s on both training shapes (`matmul_levels`: the
#    194x64 * 64x64 GCN product and the weight gradient X^T * G read in
#    place). Hosts without AVX-512F print that the gate was skipped.
# 5. Runs the smoke serve bench and checks that rendering a /predict answer
#    (`render`: the Ryu-based float writer, over every answered test text)
#    costs at most half of rendering it through `Display`, which is what
#    the writer replaced; the bench also asserts the two agree byte for
#    byte.
#
# Usage: scripts/perf_smoke.sh
set -euo pipefail

echo "== zero-allocation steady state =="
cargo test --release -p edge-core --features alloc-stats --test zero_alloc \
    -- --test-threads=1
cargo test --release -p edge-bench --features alloc-stats --test zero_alloc_parse \
    -- --test-threads=1
cargo test --release -p edge-bench --features alloc-stats --test zero_alloc_mode \
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
adam = out["adam_subnormal"]
assert adam["subnormal_moments"] > 0, "no subnormal first moments in the Adam leg"
assert adam["ratio"] <= 2.0, (
    f"Adam step with {adam['subnormal_moments']} subnormal first moments: "
    f"{adam['subnormal_step_us']:.1f}us vs {adam['normal_step_us']:.1f}us "
    f"({adam['ratio']:.2f}x > 2.0x)"
)
mm = out["matmul_levels"]
levels = {l["level"]: l for l in mm["levels"]}
if "avx512" in levels and "avx2" in levels:
    for shape in ("forward_gflops", "weight_grad_gflops"):
        wide, narrow = levels["avx512"][shape], levels["avx2"][shape]
        assert wide >= 1.3 * narrow, (
            f"AVX-512F matmul {shape} {wide:.1f} GFLOP/s vs AVX2 "
            f"{narrow:.1f} ({wide / narrow:.2f}x < 1.3x)"
        )
    print("matmul width OK: avx512 vs avx2 "
          f"{levels['avx512']['forward_gflops'] / levels['avx2']['forward_gflops']:.2f}x "
          "forward, "
          f"{levels['avx512']['weight_grad_gflops'] / levels['avx2']['weight_grad_gflops']:.2f}x "
          f"weight gradient (training runs at {mm['kernel_level']})")
else:
    print(f"matmul width gate skipped: no AVX-512F level on this host "
          f"(levels {sorted(levels)})")
print(f"perf smoke OK: 0 allocs/batch on arena legs "
      f"({fresh['allocs_per_batch']} fresh), "
      f"arena speedup {out['edge_speedup']['arena_speedup']:.2f}x, "
      f"subnormal Adam step {adam['ratio']:.2f}x")
EOF

echo "== response rendering =="
cargo run --release -p edge-bench --bin bench_serve -- --size smoke

python3 - <<'EOF'
import json

render = json.load(open("results/BENCH_serve.json"))["render"]
assert render["responses"] > 0, "render leg measured nothing"
assert render["ratio"] <= 0.5, (
    f"render_response {render['render_ns']:.0f} ns vs Display "
    f"{render['display_ns']:.0f} ns per response ({render['ratio']:.2f}x > 0.5x)"
)
print(f"render OK: {render['render_ns']:.0f} ns vs {render['display_ns']:.0f} ns "
      f"Display per response ({render['ratio']:.2f}x)")
EOF
