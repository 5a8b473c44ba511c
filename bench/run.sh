#!/usr/bin/env bash
# Builds the benchmark and the xsdserved binary it drives from this
# checkout's sources, then runs the benchmark with the given flags.
#
# Run from the repository root:
#
#   bash bench/run.sh --workload large-po --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: binaries, the Go build cache, the go command's configuration
# and telemetry, scratch schema directories and span files. The first run
# in a fresh checkout compiles the standard library into that cache; later
# runs reuse it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/xsdserved" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root; it needs go.mod, cmd/xsdserved and bench/" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/xsdserved" ./cmd/xsdserved
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -server "$out/xsdserved" -workdir "$out" "$@"
