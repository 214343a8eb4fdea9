#!/usr/bin/env bash
# Simulated-domain regression check: the simulated X1 programs of the
# working tree must print and write exactly the bytes a base revision
# does.
#
# Usage: tools/sim_compare.sh REV
#
# Extracts REV's tree with `git archive` into a temporary directory (local
# objects only, no network; nothing is written under .git/), builds it and
# the working tree (Release, only the programs below), then runs on both
# sides concurrently, with
# XFCI_GEMM_KERNEL=portable because bits are identical per GEMM kernel,
# not across kernels:
#
#   c2_on_simulated_x1 8 --metrics --trace
#   c2_on_simulated_x1 8 --faults --metrics --trace  (MSP 3 dies at its
#       op 40, MSP 0's op 7 is dropped: the fault and recovery path)
#   bench_table1_model
#   bench_table3_c2
#   bench_fig4_scaling
#   bench_fig5_speedup
#   bench_ablation_lb      (64-rank DLB server, earliest-rank scheduling)
#   bench_ablation_symm
#
# Each run has an empty directory of its own on each side, named after the
# program (c2_on_simulated_x1-faults for the fault run).  Its stdout and
# every file it writes (BENCH_*.json, metrics, trace) are compared byte
# for byte, and each file either side writes gets one line, `identical`
# or `differs`.  For a differing file stderr shows what changed: for JSON
# the first 10 key paths whose values differ, with both values, else the
# head of its diff.  Exits 0 when every
# file is identical, 1 when any differs or is written by one side only, 2
# on a usage or build error.  The extracted tree and the
# build trees live under one mktemp directory (honours TMPDIR) that is
# removed on exit.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "${root}" rev-parse --verify --quiet "$1^{commit}") || {
  echo "sim_compare: unknown revision: $1" >&2
  exit 2
}

work=$(mktemp -d "${TMPDIR:-/tmp}/xfci-sim-compare.XXXXXX")
trap 'rm -rf "${work}"' EXIT
mkdir "${work}/base-src"
git -C "${root}" archive "${rev}" | tar -x -C "${work}/base-src"

benches=(bench_table1_model bench_table3_c2 bench_fig4_scaling
         bench_fig5_speedup bench_ablation_lb bench_ablation_symm)
programs=(c2_on_simulated_x1 "${benches[@]}")
jobs=$(nproc 2>/dev/null || echo 2)
half=$(( jobs > 1 ? jobs / 2 : 1 ))
export XFCI_GEMM_KERNEL=portable

# run DIR BIN [ARGS...]: runs BIN with ARGS in the empty directory DIR,
# its stdout to DIR/stdout.txt.
run() {
  mkdir -p "$1"
  (cd "$1" && "${@:2}" > stdout.txt)
}

# side NAME SRC: builds one side's programs and runs each in its own empty
# directory under ${work}/NAME-out; the log is ${work}/NAME.log.
side() {
  local build="${work}/$1-build" out="${work}/$1-out"
  cmake -S "$2" -B "${build}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build}" -j "${half}" --target "${programs[@]}"
  local c2="${build}/examples/c2_on_simulated_x1" p
  run "${out}/c2_on_simulated_x1" "${c2}" 8 \
    --metrics metrics.json --trace trace.json
  run "${out}/c2_on_simulated_x1-faults" "${c2}" 8 --faults \
    --metrics metrics.json --trace trace.json
  for p in "${benches[@]}"; do
    run "${out}/${p}" "${build}/bench/${p}"
  done
}

side base "${work}/base-src" > "${work}/base.log" 2>&1 &
base_pid=$!
side head "${root}" > "${work}/head.log" 2>&1 &
head_pid=$!
failed=0
for s in base head; do
  pid=${base_pid}
  [ "${s}" = head ] && pid=${head_pid}
  if ! wait "${pid}"; then
    echo "sim_compare: the ${s} side failed to build or run:" >&2
    tail -n 30 "${work}/${s}.log" >&2
    failed=1
  fi
done
[ "${failed}" -eq 0 ] || exit 2

echo "sim_compare: ${rev:0:12} vs working tree, XFCI_GEMM_KERNEL=portable"
cd "${work}"
list() { (cd "$1" && find . -type f | LC_ALL=C sort); }

# json_paths A B: prints, indented, the first 10 key paths whose values
# differ between the JSON documents A and B, with both values (the compact
# one-line outputs share their first bytes, so a line diff shows nothing).
# Fails when either side does not parse or no value differs.
json_paths() {
  python3 - "$1" "$2" <<'PY'
import json, sys
try:
    a, b = (json.load(open(p)) for p in sys.argv[1:3])
except ValueError:
    sys.exit(1)
absent = object()
found = []
def walk(x, y, path):
    if isinstance(x, dict) and isinstance(y, dict):
        for k in list(x) + [k for k in y if k not in x]:
            walk(x.get(k, absent), y.get(k, absent), f"{path}/{k}")
    elif isinstance(x, list) and isinstance(y, list):
        for i in range(max(len(x), len(y))):
            walk(x[i] if i < len(x) else absent,
                 y[i] if i < len(y) else absent, f"{path}/{i}")
    elif type(x) is not type(y) or x != y:
        found.append((path or "/", x, y))
def show(v):
    return "(absent)" if v is absent else json.dumps(v)[:120]
walk(a, b, "")
for path, x, y in found[:10]:
    print(f"  {path}: {show(x)} -> {show(y)}")
if len(found) > 10:
    print(f"  ... and {len(found) - 10} more key paths")
sys.exit(0 if found else 1)
PY
}
count=0
differing=0
while IFS= read -r f; do
  f=${f#./}
  count=$((count + 1))
  if cmp -s "base-out/${f}" "head-out/${f}"; then
    printf 'identical  %-40s %10d bytes\n' "${f}" \
      "$(wc -c < "head-out/${f}")"
    continue
  fi
  differing=$((differing + 1))
  if [ ! -f "base-out/${f}" ] || [ ! -f "head-out/${f}" ]; then
    printf 'differs    %-40s written by one side only\n' "${f}"
    continue
  fi
  printf 'differs    %-40s %10d -> %d bytes\n' "${f}" \
    "$(wc -c < "base-out/${f}")" "$(wc -c < "head-out/${f}")"
  echo "sim_compare: ${f}:" >&2
  if [[ "${f}" == *.json ]] && command -v python3 > /dev/null &&
     json_paths "base-out/${f}" "head-out/${f}" >&2; then
    continue
  fi
  diff "base-out/${f}" "head-out/${f}" | head -n 20 | cut -c1-300 >&2 || true
done < <(LC_ALL=C sort -u <(list base-out) <(list head-out))
if [ "${differing}" -ne 0 ]; then
  echo "sim_compare: ${differing} of ${count} files differ" >&2
  exit 1
fi
echo "sim_compare: all ${count} files byte-identical"
