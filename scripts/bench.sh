#!/bin/sh
# Run the perf-trajectory benchmarks (E7 cached validation, E8 streaming,
# E10 DFA stepping + pooled allocation, E11 service throughput, E12
# one-pass binding, E13 registry cold-start + compatibility checking,
# E14 ahead-of-time compiled validators, E15 zero-copy tokenization +
# intra-document parallel validation, E16 SOAP envelope dispatch vs the
# bare-validation floor, E17 cluster routing + batch amortization +
# shared-parse cold start, E18 deep and wide documents) and write
# machine-readable results to the
# named JSON file. The JSON records the host's CPU model, core count and
# GOMAXPROCS — read the E15 scaling legs and the E17 fleet legs against
# num_cpu, not in isolation (a 3-node in-process fleet on one core is
# measuring routing overhead, not horizontal scaling).
#
# Usage: scripts/bench.sh OUT.json [extra go test flags...]
#   e.g. scripts/bench.sh BENCH_PR12.json -benchtime=2s
set -eu
if [ $# -lt 1 ]; then
	echo "usage: scripts/bench.sh OUT.json [extra go test flags...]" >&2
	exit 2
fi
case $1 in
/*) out=$1 ;;
*) out=$(pwd)/$1 ;;
esac
shift
cd "$(dirname "$0")/.."

go test -run xxx -bench 'BenchmarkE7|BenchmarkE8|BenchmarkE10|BenchmarkE11|BenchmarkE12|BenchmarkE13|BenchmarkE14|BenchmarkE15|BenchmarkE16|BenchmarkE17|BenchmarkE18' -benchmem "$@" . |
	go run ./cmd/benchjson -o "$out"
echo "wrote $out" >&2
