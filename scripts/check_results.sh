#!/usr/bin/env bash
# Re-runs the figure and table benches and compares each one's stdout with
# the committed copy under results/.
#
#   scripts/check_results.sh [build-dir]            # compare (default build/)
#   scripts/check_results.sh --update [build-dir]   # rewrite results/
#
# Every bench listed below prints a deterministic report (no wall times),
# so any difference is a change in what the program computes.  The benches
# write CSVs to their working directory, so each runs in a temporary one.
# Exits non-zero when a bench fails or its output differs.
set -euo pipefail

cd "$(dirname "$0")/.."
repo=$(pwd)

update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
  shift
fi
build_dir=$(cd "${1:-build}" && pwd)

benches=(
  fig2_3_motivating fig6_7_performance fig8_ilp_scaling fig9_fault_coverage
  fig10_coverage_sweep table1_config table3_schemes ext_clusters
  ablation_bug ablation_checks ablation_coverage_tradeoff ablation_library
  ablation_ports ablation_protection ablation_spill
)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$repo/results"

status=0
for bench in "${benches[@]}"; do
  out="$work/$bench.txt"
  if ! (cd "$work" && env -u CASTED_TRACE -u CASTED_SCALE -u CASTED_TRIALS \
          -u CASTED_THREADS -u CASTED_PROGRESS \
          "$build_dir/bench/$bench" > "$out"); then
    echo "FAIL $bench: exited non-zero" >&2
    status=1
    continue
  fi
  if [[ $update == 1 ]]; then
    cp "$out" "$repo/results/$bench.txt"
  elif ! diff -u "$repo/results/$bench.txt" "$out"; then
    echo "FAIL $bench: output differs from results/$bench.txt" >&2
    status=1
  fi
done
exit $status
