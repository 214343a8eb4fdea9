#!/usr/bin/env bash
# Full correctness sweep: build + ctest under every preset in the
# sanitizer matrix, then the repo linter (with standalone header
# compiles), clang-tidy and clang-format when installed.
#
# Usage: tools/check_all.sh [preset ...]
#   With no arguments runs the full matrix: default asan ubsan tsan.
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan ubsan tsan)
fi

jobs=$(nproc 2>/dev/null || echo 2)

for preset in "${presets[@]}"; do
  echo "== preset: ${preset} =="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
done

echo "== xfci_lint (tree + header self-containment) =="
python3 tools/xfci_lint.py --compile-headers --cxx "${CXX:-c++}"

echo "== xfci_lint --fix (dry run must be a no-op on a clean tree) =="
python3 tools/xfci_lint.py --fix

# Compile-time lock-discipline proof (DESIGN.md §13): the tsa preset
# builds the annotated tree under Clang -Wthread-safety -Werror and runs
# the FP-order-independent concurrency tests.
if command -v clang++ >/dev/null 2>&1; then
  echo "== clang thread-safety analysis (tsa preset) =="
  cmake --preset tsa
  cmake --build --preset tsa -j "${jobs}"
  ctest --preset tsa -j "${jobs}"
else
  echo "== clang++ not installed; thread-safety analysis skipped (preset: tsa) =="
fi

echo "== check_trace (validator self-test) =="
python3 tools/check_trace.py --self-test

# Traced C2 runs against the first preset built above: every backend must
# emit Perfetto-loadable traces and a valid run report (DESIGN.md §11),
# including a threads run with more workers than ranks (one report row
# per charge slot) and a process run.  The process run needs Linux and a
# non-tsan preset, exactly like the process smoke further down.
case "${presets[0]}" in
  default) obs_build=build ;;
  *)       obs_build="build-${presets[0]}" ;;
esac
c2="${obs_build}/examples/c2_on_simulated_x1"
if [ -x "${c2}" ]; then
  echo "== observability: traced C2 runs (${presets[0]} preset) =="
  obs_tmp=$(mktemp -d)
  trap 'rm -rf "${obs_tmp}"' EXIT
  "${c2}" 8 --trace "${obs_tmp}/sim.json" \
      --metrics "${obs_tmp}/sim_metrics.json" > /dev/null
  "${c2}" 4 --backend threads --threads 2 \
      --trace "${obs_tmp}/threads.json" \
      --metrics "${obs_tmp}/threads_metrics.json" > /dev/null
  "${c2}" 2 --backend threads --threads 4 \
      --trace "${obs_tmp}/threads_wide.json" \
      --metrics "${obs_tmp}/threads_wide_metrics.json" > /dev/null
  obs_args=(--trace "${obs_tmp}/sim.json" --trace "${obs_tmp}/threads.json"
            --trace "${obs_tmp}/threads_wide.json"
            --metrics "${obs_tmp}/sim_metrics.json"
            --metrics "${obs_tmp}/threads_metrics.json"
            --metrics "${obs_tmp}/threads_wide_metrics.json")
  if [ "$(uname -s)" = "Linux" ] && [ "${presets[0]}" != "tsan" ]; then
    "${c2}" 4 --backend process \
        --trace "${obs_tmp}/process.json" \
        --metrics "${obs_tmp}/process_metrics.json" > /dev/null
    obs_args+=(--trace "${obs_tmp}/process.json"
               --metrics "${obs_tmp}/process_metrics.json")
  else
    echo "SKIPPED: traced process-backend C2 run (needs Linux and a" \
         "non-tsan preset)"
  fi
  python3 tools/check_trace.py "${obs_args[@]}" \
      --expect-spans iteration,sigma,beta_side,parity_fold,mixed,task
  # Live telemetry smoke (DESIGN.md §16): an instrumented run on an
  # ephemeral exporter port must leave a valid xfci-telemetry-v1
  # snapshot behind, and the telemetry-enabled energy output must be
  # bitwise identical to the plain run's.
  echo "== telemetry: instrumented C2 run + snapshot validation =="
  "${c2}" 4 > "${obs_tmp}/c2_plain.out"
  "${c2}" 4 --telemetry-port 0 --telemetry "${obs_tmp}/telemetry.json" \
      > "${obs_tmp}/c2_tele.out" 2> /dev/null
  python3 tools/check_trace.py --telemetry "${obs_tmp}/telemetry.json"
  if ! cmp -s "${obs_tmp}/c2_plain.out" "${obs_tmp}/c2_tele.out"; then
    diff "${obs_tmp}/c2_plain.out" "${obs_tmp}/c2_tele.out" || true
    echo "telemetry perturbed the C2 output (must be bitwise identical)"
    exit 1
  fi
else
  echo "== observability: ${c2} not built; skipped =="
fi

# Process-backend smoke (DESIGN.md §14): a faulted multi-process C2 run —
# forked ranks, real SIGKILLs, torn shm writes — must still converge, and
# no /dev/shm segment may survive the run.  tsan cannot host the fork+shm
# children (its runtime would report on its own bookkeeping; the tsan
# ctest preset excludes the Process* tests for the same reason), and the
# backend itself is Linux-only, so everything else prints a SKIPPED line.
if [ "$(uname -s)" = "Linux" ] && [ "${presets[0]}" != "tsan" ] \
    && [ -x "${c2}" ]; then
  echo "== process backend: faulted C2 smoke (${presets[0]} preset) =="
  shm_glob() { find /dev/shm -maxdepth 1 -name 'xfci-*' 2>/dev/null; }
  shm_before=$(shm_glob | wc -l)
  if ! "${c2}" 3 --backend process --ranks 3 --faults > /dev/null; then
    # A failed run must not leak its arenas past this script.
    shm_glob | xargs -r rm -f
    echo "process-backend smoke FAILED (leaked segments cleaned up)"
    exit 1
  fi
  shm_after=$(shm_glob | wc -l)
  if [ "${shm_after}" -gt "${shm_before}" ]; then
    shm_glob | xargs -r rm -f
    echo "process-backend smoke leaked shm segments (cleaned up)"
    exit 1
  fi
else
  echo "SKIPPED: process-backend smoke (needs Linux, a non-tsan preset," \
       "and a built ${c2})"
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  cmake --build --preset default --target tidy
else
  echo "== clang-tidy not installed; skipped (config: .clang-tidy) =="
fi

if command -v clang-format >/dev/null 2>&1; then
  echo "== clang-format =="
  cmake --build --preset default --target format-check
else
  echo "== clang-format not installed; skipped (config: .clang-format) =="
fi

echo "== all checks passed =="
