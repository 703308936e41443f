#!/usr/bin/env bash
# Regenerates every paper figure/table reproduction into results/.
#
#   scripts/run_all_experiments.sh [smoke|ci|full] [build-dir] [results-dir]
#
# smoke: seconds (sanity).  ci (default): minutes, <= 1M subscriptions.
# full: the paper's 3M-6M populations — long runtimes, several GB of RAM.

set -euo pipefail

SCALE="${1:-ci}"
BUILD="${2:-build}"
# The results directory honors VFPS_RESULTS_DIR (as the benches' own JSON
# reports do); an explicit third argument wins over both.
OUT="${3:-${VFPS_RESULTS_DIR:-results}}"

if [[ ! -d "$BUILD/bench" ]]; then
  echo "build first: cmake -B $BUILD -G Ninja && cmake --build $BUILD" >&2
  exit 1
fi

mkdir -p "$OUT"
export VFPS_BENCH_SCALE="$SCALE"
# Point the benches' BENCH_*.json reports at the same directory as the
# text transcripts.
export VFPS_RESULTS_DIR="$OUT"

BENCHES=(
  fig3a_throughput
  fig3b_operators
  fig3c_memory
  fig3d_loading
  fig4a_schema_drift
  fig4b_skew_drift
  example31_clustering
  ipc_overhead
  churn_vs_match
  micro_batch
  micro_cluster
  micro_phase1
)

# Fail loudly up front if any bench binary is missing — a partial results/
# refresh that silently skips figures is worse than no refresh.
missing=0
for b in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD/bench/$b" ]]; then
    echo "missing bench binary: $BUILD/bench/$b" >&2
    missing=1
  fi
done
if [[ "$missing" -ne 0 ]]; then
  echo "rebuild first: cmake --build $BUILD -j\"\$(nproc)\"" >&2
  exit 1
fi

for b in "${BENCHES[@]}"; do
  echo "=== $b (scale: $SCALE) ==="
  "$BUILD/bench/$b" | tee "$OUT/$b.txt"
  echo
done

echo "done; outputs in $OUT/ — compare against EXPERIMENTS.md"
