#!/usr/bin/env bash
# Regenerates test_output.txt and bench_output.txt (the full verification
# record referenced by EXPERIMENTS.md). Fails if any test or benchmark
# fails: `tee` no longer swallows exit codes.
#
# Usage: run_all.sh [build-dir]   (default: build)
#   Every bench prints its counters and writes BENCH_*.metrics.json. Set
#   RT_OBS_SPAN_CAPACITY=32768 and every bench additionally prints its
#   per-stage wall-time summary and fills BENCH_*.trace.json /
#   BENCH_*.folded.txt with stage spans (see docs/TELEMETRY.md).
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR="${1:-build}"

# Static analysis first: cheap, and a lint failure should stop the run
# before an hour of benches (clang-tidy stage skips itself when the
# binary is not installed; rt_lint + rt_check always run).
bash tools/lint.sh "$BUILD_DIR"

ctest --test-dir "$BUILD_DIR" --output-on-failure 2>&1 | tee test_output.txt
test "${PIPESTATUS[0]}" -eq 0

: > bench_output.txt
shopt -s nullglob
for b in "$BUILD_DIR"/bench/bench_*; do
  if [ -x "$b" ] && [ -f "$b" ]; then
    "$b" 2>&1 | tee -a bench_output.txt
    test "${PIPESTATUS[0]}" -eq 0
  fi
done

# Surface the aggregate per-stage picture at the end of the record (the
# summaries are emitted by the benches themselves when spans are on).
if grep -q "stage " bench_output.txt 2>/dev/null; then
  echo
  echo "=== per-stage telemetry recorded (spans on) ==="
  echo "trace/metrics artifacts: $(ls BENCH_*.trace.json 2>/dev/null | wc -l) trace file(s);"
  echo "open any BENCH_*.trace.json at chrome://tracing or ui.perfetto.dev"
fi
