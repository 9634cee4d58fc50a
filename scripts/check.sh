#!/usr/bin/env bash
# Tier-1 verification: build + ctest, plain and (optionally) sanitized.
#
#   scripts/check.sh               # plain Release build + full test suite
#   scripts/check.sh --asan        # additionally an ASan+UBSan build + suite
#   scripts/check.sh --tsan        # additionally a TSan build running the
#                                  # parallel + resilience + obs labels
#   scripts/check.sh --resilience  # only the resilience-labelled tests
#   scripts/check.sh --bench-smoke # additionally a tiny-size throughput bench
#                                  # run with JSON schema validation
#   scripts/check.sh --docs        # additionally the docs lint (broken
#                                  # relative links, undocumented metrics)
#   scripts/check.sh --kernels     # additionally the kernel parity label
#                                  # (dispatched), the kernels + parallel
#                                  # labels under EMD_BACKEND=scalar, and the
#                                  # both-backend GEMM smoke comparison
#   scripts/check.sh --quant       # additionally the kernels + parallel
#                                  # labels under EMD_BACKEND=int8 and the
#                                  # int8-vs-fp32 GEMM smoke comparison
#   scripts/check.sh --serving     # additionally the net label (protocol,
#                                  # admission, chaos, drain tests) and a
#                                  # short bench_serving_load spike run with
#                                  # SLO + zero-loss assertions
#   scripts/check.sh --memory      # additionally the memory label (governor,
#                                  # decay, eviction, checkpoint v4 tests,
#                                  # byte-accounting churn) and a
#                                  # bench_memory_soak smoke run asserting
#                                  # budget, RSS plateau, F1 bounds and
#                                  # running byte totals == recount
#   scripts/check.sh --shard       # additionally the shard label (router,
#                                  # cross-shard determinism, checkpoint v5,
#                                  # multi-stream isolation) and a short
#                                  # bench_multistream run asserting 100+
#                                  # streams and noisy-neighbor isolation
#   scripts/check.sh --scan        # additionally the scan label (symbol
#                                  # table, scan-vs-reference fuzz, zero-
#                                  # alloc scan) and the scan micro-bench at
#                                  # 100k candidates / 13 shards, checked
#                                  # against the naive reference
#
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

CTEST_ARGS=()
ASAN=0
TSAN=0
BENCH_SMOKE=0
DOCS=0
KERNELS=0
QUANT=0
SERVING=0
MEMORY=0
SHARD=0
SCAN=0
for arg in "$@"; do
  case "$arg" in
    --asan) ASAN=1 ;;
    --tsan) TSAN=1 ;;
    --bench-smoke) BENCH_SMOKE=1 ;;
    --docs) DOCS=1 ;;
    --kernels) KERNELS=1 ;;
    --quant) QUANT=1 ;;
    --serving) SERVING=1 ;;
    --memory) MEMORY=1 ;;
    --shard) SHARD=1 ;;
    --scan) SCAN=1 ;;
    --resilience) CTEST_ARGS+=(-L resilience) ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

run_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
    ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
}

run_suite build

if [[ "$ASAN" == 1 ]]; then
  run_suite build-asan -DEMD_SANITIZE=ON
fi

if [[ "$TSAN" == 1 ]]; then
  # The threaded code paths under ThreadSanitizer: the parallel batch engine,
  # the resilience ladder it must not perturb, and the metrics registry that
  # records from every worker thread.
  cmake -B build-tsan -S . -DEMD_TSAN=ON
  cmake --build build-tsan -j "$(nproc)"
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -L 'parallel|resilience|obs|kernels|net|memory|shard|scan'
fi

if [[ "$SERVING" == 1 ]]; then
  # The serving front-end under bursty load: chaos + drain tests, then a
  # short spike run that must shed with explicit RETRY_AFTER, starve no
  # client, lose no accepted tweet, and hold the p99 end-to-end SLO.
  ctest --test-dir build --output-on-failure -L net
  ./build/bench/bench_serving_load --duration-ms 2000 \
    --json build/BENCH_serving.json
fi

if [[ "$MEMORY" == 1 ]]; then
  # Memory governance under a replayed stream: the governor/decay/eviction/
  # checkpoint tests, then a soak smoke that must hold the byte budget,
  # plateau governed RSS, actually evict, and keep F1 within a point
  # of the unbounded baseline.
  ctest --test-dir build --output-on-failure -L memory
  ./build/bench/bench_memory_soak --smoke --out build/BENCH_memory.json
fi

if [[ "$SHARD" == 1 ]]; then
  # The sharded multi-stream service: router/determinism/checkpoint-v5/
  # isolation tests, then a short bench_multistream run that must hold the
  # shards-vs-single-shard digest equality, sustain 100+ simultaneous
  # streams, and prove a noisy neighbour cannot perturb a victim stream.
  ctest --test-dir build --output-on-failure -L shard
  ./build/bench/bench_multistream --smoke --out build/BENCH_multistream.json
fi

if [[ "$SCAN" == 1 ]]; then
  # The candidate matcher: symbol-table/dispatch unit tests, the randomized
  # fuzz against the naive longest-match reference, the pipeline digest
  # matrix, and the zero-allocation gate — then the scan micro-bench at
  # 100k candidates / 13 shards, which exits nonzero unless every
  # benchmarked tweet matches the reference. JSON lands in
  # build/bench/BENCH_micro.json.
  ctest --test-dir build --output-on-failure -L scan
  (cd build/bench && ./bench_micro_core --scan-only)
fi

if [[ "$KERNELS" == 1 ]]; then
  # Kernel parity under both dispatch outcomes — under forced scalar also
  # the parallel label, whose Finalize oracles check the classifier's feature
  # gather on the scalar fp32 backend — then the GEMM smoke: the dispatched
  # backend must never be slower than the scalar blocked kernel (when it is
  # not the scalar kernel itself).
  ctest --test-dir build --output-on-failure -L kernels
  EMD_BACKEND=scalar ctest --test-dir build --output-on-failure -L 'kernels|parallel'
  (cd build/bench && ./bench_micro_core --gemm-only)
  if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
with open("build/bench/BENCH_micro.json") as f:
    doc = json.load(f)
by_name = {r["name"]: r for r in doc["results"]}
backend = next((r["name"].split("/", 1)[1] for r in doc["results"]
                if r["name"].startswith("kernel_backend/")), None)
assert backend, "no kernel_backend entry in BENCH_micro.json"
scalar = by_name["gemm_blocked/256"]["throughput"]
dispatch = by_name["gemm_dispatch/256"]["throughput"]
print(f"gemm smoke: backend={backend} scalar={scalar:.2f} "
      f"dispatch={dispatch:.2f} GFLOP/s")
if backend != "scalar":
    assert dispatch >= scalar, (
        f"dispatched backend '{backend}' slower than scalar: "
        f"{dispatch:.2f} < {scalar:.2f} GFLOP/s")
EOF
  else
    echo "kernels smoke: python3 unavailable, skipped GEMM comparison"
  fi
fi

if [[ "$QUANT" == 1 ]]; then
  # Quantized inference: the kernel parity + batching labels with the int8
  # backend opted in (models pre-quantize at train/load; the F1 tolerance
  # gate inside quantization_test must hold), then the int8-vs-fp32 GEMM
  # smoke at real layer shapes.
  EMD_BACKEND=int8 ctest --test-dir build --output-on-failure \
    -L 'kernels|parallel'
  (cd build/bench && EMD_BACKEND=int8 ./bench_micro_core --quant-only)
  if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
with open("build/bench/BENCH_micro.json") as f:
    doc = json.load(f)
backend = next((r["name"].split("/", 1)[1] for r in doc["results"]
                if r["name"].startswith("kernel_backend/")), None)
assert backend == "int8", f"expected int8 backend, got {backend}"
rows = {r["name"]: r for r in doc["results"]}
fp32 = rows["qgemm_fp32_scalar/square/256x256x256"]["throughput"]
int8 = rows["qgemm_int8/square/256x256x256"]["throughput"]
print(f"quant smoke: int8 {int8:.2f} vs scalar fp32 {fp32:.2f} GFLOP/s")
assert int8 > fp32, (
    f"int8 GEMM slower than scalar fp32 at 256^3: {int8:.2f} <= {fp32:.2f}")
EOF
  else
    echo "quant smoke: python3 unavailable, skipped comparison"
  fi
fi

if [[ "$BENCH_SMOKE" == 1 ]]; then
  # Tiny-size throughput run: exercises the parallel pipeline end to end
  # (including its serial-vs-parallel digest cross-check) and validates that
  # the emitted JSON parses against the emd-bench-v1 schema.
  ./build/bench/bench_pipeline_throughput --smoke --out build/BENCH_smoke.json
  if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
with open("build/BENCH_smoke.json") as f:
    doc = json.load(f)
assert doc["schema"] == "emd-bench-v1", doc
for r in doc["results"]:
    assert isinstance(r["name"], str) and r["name"]
    assert isinstance(r["iters"], int)
    assert isinstance(r["ns_per_op"], (int, float))
print(f"bench smoke: {len(doc['results'])} results validated")
EOF
  else
    echo "bench smoke: python3 unavailable, skipped JSON validation"
  fi
fi

if [[ "$DOCS" == 1 ]]; then
  if command -v python3 >/dev/null; then
    python3 scripts/docs_lint.py
  else
    echo "docs lint: python3 unavailable, skipped" >&2
    exit 1
  fi
fi

echo "check.sh: all suites passed"
