#!/usr/bin/env bash
# Full CI gate for the whitenrec tree. Mirrors what the repo considers "green":
#
#   1. configure + build with the hardened warning set promoted to errors
#   2. tier-1 test suite (fast, deterministic; see ROADMAP.md)
#   3. perfbench build + self-test — configures perfbench/CMakeLists.txt
#      (the end-to-end benchmark, which compiles the library from src/) and
#      runs perfbench_test, so a library API change cannot silently break
#      the benchmark build
#   4. check-lint   — determinism linter over src/ tests/ bench/ examples/
#   5. check-tidy   — curated clang-tidy profile (loud no-op if not installed)
#   6. check-faults — crash-safety suite under a WHITENREC_FAULT_RATE sweep
#   7. check-asan   — GEMM + linalg + top-K + retrieval + whitening
#      (whitening_test, whitening_ext_test) + extended-model (extended_test)
#      + SASRec-model (seqrec_test, the eval forward's differential tests)
#      suites under AddressSanitizer/UBSan
#   8. check-tsan   — parallel (x20) + determinism suites under ThreadSanitizer
#   9. check-serve  — serving suite, then the randomized-traffic soak and
#      micro-batch determinism cases under TSan (serving latency is
#      measured by perfbench, stage 3's benchmark, not gated here)
#  10. check-ann    — retrieval suite (deterministic k-means + IVF), the same
#      suite under TSan, and a small-catalog bench_ann run whose sweep must
#      pass CheckAnnBench (out/BENCH_ann.json)
#  11. check-analyze — cross-TU analyzer (include-graph layering, env-knob
#      registry, hot-path allocation) over the whole tree; writes a
#      schema-validated out/ANALYZE.json
#  12. check-compress — quantization suite, retrieval + serving suites
#      re-run under WHITENREC_ITEM_QUANT=int8, and a small bench_compression
#      sweep whose grid must pass CheckCompressionBench, >= 4x at <= 1%
#      NDCG loss included (out/BENCH_compression.json)
#  13. check-degrade — overload-resilience suite (admission, ladder,
#      quarantine, rollback), chaos soak + resilience tests under TSan,
#      and a small bench_degrade sweep that must pass CheckDegradeBench,
#      >= 99% availability at every load point (out/BENCH_degrade.json)
#
# Usage: scripts/ci.sh [build-dir]   (default: build-ci)
#
# Stages 3 and 7-10 configure sibling build trees inside the build dir, so a
# single invocation leaves everything needed to re-run any stage by hand.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

JOBS="$(nproc 2>/dev/null || echo 2)"

echo "==> [1/13] configure + build (WHITENREC_WERROR=ON)"
cmake -S . -B "${BUILD_DIR}" -DWHITENREC_WERROR=ON
cmake --build "${BUILD_DIR}" --parallel "${JOBS}"

echo "==> [2/13] tier-1 tests"
ctest --test-dir "${BUILD_DIR}" -L tier1 --output-on-failure -j "${JOBS}"

echo "==> [3/13] perfbench build + self-test"
cmake -S perfbench -B "${BUILD_DIR}/perfbench"
cmake --build "${BUILD_DIR}/perfbench" --parallel "${JOBS}" \
  --target perfbench perfbench_test
"${BUILD_DIR}/perfbench/perfbench_test"

echo "==> [4/13] check-lint"
cmake --build "${BUILD_DIR}" --target check-lint

echo "==> [5/13] check-tidy"
cmake --build "${BUILD_DIR}" --target check-tidy

echo "==> [6/13] check-faults"
cmake --build "${BUILD_DIR}" --target check-faults

echo "==> [7/13] check-asan"
cmake --build "${BUILD_DIR}" --target check-asan

echo "==> [8/13] check-tsan"
cmake --build "${BUILD_DIR}" --target check-tsan

echo "==> [9/13] check-serve"
cmake --build "${BUILD_DIR}" --target check-serve

echo "==> [10/13] check-ann"
cmake --build "${BUILD_DIR}" --target check-ann

echo "==> [11/13] check-analyze"
cmake --build "${BUILD_DIR}" --target check-analyze

echo "==> [12/13] check-compress"
cmake --build "${BUILD_DIR}" --target check-compress

echo "==> [13/13] check-degrade"
cmake --build "${BUILD_DIR}" --target check-degrade

echo "==> CI green"
