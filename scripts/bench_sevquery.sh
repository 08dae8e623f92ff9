#!/bin/sh
# Snapshot the analysis and SEV query-engine benchmarks into
# BENCH_sevquery.json at the repo root. Runs the per-table/figure
# benchmarks, the §6 analysis build (BenchmarkInterAnalysisBuild) and the
# BenchmarkSevQuery* store benches, and records ns/op per benchmark, so
# speedups (and regressions) are diffable across PRs. Usage: scripts/bench_sevquery.sh [benchtime]
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${1:-200ms}"
OUT="BENCH_sevquery.json"

go test -run '^$' \
	-bench 'BenchmarkTable|BenchmarkFig|BenchmarkInterAnalysisBuild|BenchmarkSevQuery|BenchmarkReproFanOut' \
	-benchtime "$BENCHTIME" . |
	awk -v benchtime="$BENCHTIME" '
		/^goos:/   { goos = $2 }
		/^goarch:/ { goarch = $2 }
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS suffix
			names[++n] = name
			nsop[name] = $3
		}
		END {
			printf "{\n"
			printf "  \"goos\": \"%s\",\n", goos
			printf "  \"goarch\": \"%s\",\n", goarch
			printf "  \"benchtime\": \"%s\",\n", benchtime
			printf "  \"ns_per_op\": {\n"
			for (i = 1; i <= n; i++) {
				printf "    \"%s\": %s%s\n", names[i], nsop[names[i]], i < n ? "," : ""
			}
			printf "  }\n}\n"
		}
	' >"$OUT"

echo "wrote $OUT"
