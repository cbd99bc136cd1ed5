#!/usr/bin/env bash
# Builds the benchmark harness and the seqbistd daemon from the checkout it
# sits in, then runs one workload:
#
#   bash perfbench/run.sh --workload pipeline-atpg --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root (Go build cache, temp files, binaries, daemon data dirs,
# digests and traces).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/seqbistd" ]; then
	echo "perfbench: $root holds no seqbist source tree to build" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root" && go build -o "$build/seqbistd" ./cmd/seqbistd)
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
