#!/usr/bin/env bash
# Runs the figure/table benchmarks with -benchmem and records a dated JSON
# baseline (BENCH_<yyyymmdd>.json) at the repo root, so the performance
# trajectory is tracked across PRs.
#
# Usage:
#   scripts/bench.sh                      # default 2 iterations per benchmark
#   BENCHTIME=5x scripts/bench.sh         # more iterations for steadier numbers
#   BENCH_FILTER='Fig2.' scripts/bench.sh # subset of benchmarks
#   BENCH_OUT=bench_ci.json scripts/bench.sh  # explicit output path (CI)
#
# The BENCH_FILTER regex is applied both to `go test -bench` and to the JSON
# serialization, and the script fails when it matches no benchmark at all —
# a typo'd filter must not silently write an empty baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-2x}"
filter="${BENCH_FILTER:-Table1|Fig[0-9]+|Table2|EngineTick|PowerGovTick|Place|CompileScenario|CompiledScenarioRun|CompileCache(Hit|Miss)|Campaign(Cold|Warm)Cache|Hyperscale}"
out="${BENCH_OUT:-BENCH_$(date +%Y%m%d).json}"
ci="false"
if [ "${GITHUB_ACTIONS:-}" = "true" ]; then ci="true"; fi
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# The Hyperscale benches simulate a full day over a 10x fleet and cost tens
# of seconds per iteration, so they always run at a single iteration: the
# main invocation skips them and a second fixed-benchtime pass appends them
# to the same raw output (and thus the same JSON baseline) whenever the
# filter selects them.
go test -run '^$' -skip '^BenchmarkHyperscale' -bench "^Benchmark(${filter})" -benchmem -benchtime "$benchtime" . | tee "$raw" >&2
if printf 'HyperscaleDaySerial' | grep -qE "^(${filter})" ; then
    go test -run '^$' -bench '^BenchmarkHyperscale' -benchmem -benchtime 1x . | tee -a "$raw" >&2
fi

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v benchtime="$benchtime" -v filter="$filter" -v ci="$ci" '
BEGIN {
    jsonFilter = filter
    gsub(/\\/, "\\\\", jsonFilter); gsub(/"/, "\\\"", jsonFilter)
    print "{"
    printf "  \"date\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"filter\": \"%s\",\n  \"ci\": %s,\n  \"benchmarks\": [\n", date, benchtime, jsonFilter, ci
    n = 0
}
$1 ~ ("^Benchmark(" filter ")") {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, $3
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "B/op")      printf ", \"bytes_per_op\": %s", $i
        if ($(i+1) == "allocs/op") printf ", \"allocs_per_op\": %s", $i
    }
    printf "}"
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

matched="$(grep -c '"name"' "$out" || true)"
if [ "$matched" -eq 0 ]; then
    rm -f "$out"
    echo "bench.sh: BENCH_FILTER='${filter}' matched no benchmarks; no baseline written" >&2
    exit 1
fi
echo "wrote $out ($matched benchmarks)" >&2
