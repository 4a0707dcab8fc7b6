#!/usr/bin/env bash
# Builds tracond and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload online-small --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binaries, scratch data, result copies) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOTELEMETRY=off

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/tracond" ]; then
	echo "perfbench: $root is not a TRACON source checkout (no go.mod or cmd/tracond)" >&2
	exit 2
fi

go build -o "$build/bin/tracond" ./cmd/tracond >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
find . -path ./.bench_build -prune -o -path ./.git -prune -o \( -name '*.go' -o -name go.mod \) -type f -print \
	| LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1 > "$build/source.sha256"

exec "$build/bin/perfbench" "$@"
