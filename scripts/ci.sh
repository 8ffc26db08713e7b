#!/usr/bin/env bash
# CI pipeline: configure, build, unit tests, aidelint over every app, the
# paper-output golden guard, the perfbench self-tests, clang-tidy (when
# installed), and an ASan/UBSan test job with libstdc++ bounds assertions.
#
# Environment knobs:
#   AIDE_CI_SKIP_SANITIZE=1   skip the sanitizer job (slowest stage)
#   AIDE_CI_SKIP_TIDY=1       skip clang-tidy even if installed
#   AIDE_CI_JOBS=N            parallelism (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${AIDE_CI_JOBS:-$(nproc)}"

step() { printf '\n==== %s ====\n' "$*"; }

step "configure + build (build-ci)"
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build build-ci -j "$JOBS"

step "unit + integration tests"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

step "aidelint (static partition-safety) over all apps"
./build-ci/src/analysis/aidelint

step "aideverify (effect inference + metadata audit + batch-safety proofs)"
./build-ci/src/analysis/aidelint --verify
./build-ci/src/analysis/aidelint --verify --json >/dev/null

step "lint suite (ctest -L lint: inference, audit rules, golden CLI output)"
ctest --test-dir build-ci --output-on-failure -L lint -j "$JOBS"

step "paper golden (ctest -L golden: fig5 DOTs, fig5/6/8/10 stdout and fault/chaos/disconnect/fleet JSONs byte-identical)"
ctest --test-dir build-ci --output-on-failure -L golden

step "perfbench self-tests (reduced-scale end-to-end benchmark suite)"
python3 -m unittest perfbench/test_perfbench.py

step "graph hot-path smoke (monitor throughput + MINCUT parity)"
./build-ci/bench/bench_graph_hotpath --smoke

step "VM hot-path smoke (slab heap + call-site cache parity)"
./build-ci/bench/bench_vm_hotpath --smoke

step "chaos smoke (crash-consistent offload under seeded schedules)"
./build-ci/tests/chaos_test --smoke

step "rpc batch smoke (batched vs per-op transport parity + frame reduction)"
./build-ci/bench/bench_rpc_batch --smoke

step "transport suite (ctest -L transport: framing, batching, read-ahead windows, chaos)"
ctest --test-dir build-ci --output-on-failure -L transport -j "$JOBS"

step "provisional-cut suite (ctest -L offload: blind-offload revision, two-way migration, link death mid-revision)"
ctest --test-dir build-ci --output-on-failure -L offload -j "$JOBS"

step "disconnect suite (ctest -L disconnect: detector, redo log, reconcile)"
ctest --test-dir build-ci --output-on-failure -L disconnect -j "$JOBS"

step "disconnect smoke (hoard/journal/reconcile under mid-run outages)"
./build-ci/bench/bench_disconnect --smoke

step "fleet suite (ctest -L fleet: session isolation, admission, scheduling)"
ctest --test-dir build-ci --output-on-failure -L fleet -j "$JOBS"

step "pool suite (ctest -L pool: placement, failover, pooled fleet emulation)"
ctest --test-dir build-ci --output-on-failure -L pool -j "$JOBS"

step "fleet smoke (multi-session overhead, zero-alloc dispatch + pool gates)"
./build-ci/bench/bench_fleet --smoke

if [[ "${AIDE_CI_SKIP_TIDY:-0}" != 1 ]] && command -v clang-tidy >/dev/null; then
  step "clang-tidy"
  # Library and app sources; test files follow gtest idioms tidy dislikes.
  mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
  clang-tidy -p build-ci --quiet "${tidy_sources[@]}"
else
  step "clang-tidy: not installed (or skipped) — config is .clang-tidy"
fi

if [[ "${AIDE_CI_SKIP_SANITIZE:-0}" != 1 ]]; then
  step "ASan/UBSan + _GLIBCXX_ASSERTIONS job (build-asan)"
  cmake -B build-asan -S . -DAIDE_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
  ./build-asan/src/analysis/aidelint --verify >/dev/null
  ./build-asan/tests/chaos_test --smoke
  ./build-asan/bench/bench_vm_hotpath --smoke
  ./build-asan/bench/bench_rpc_batch --smoke
  ./build-asan/bench/bench_disconnect --smoke
  ./build-asan/bench/bench_fleet --smoke
else
  step "sanitizer job skipped (AIDE_CI_SKIP_SANITIZE=1)"
fi

step "CI green"
