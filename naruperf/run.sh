#!/usr/bin/env bash
# Builds the naru CLI and the benchmark from this checkout, then runs one
# benchmark run. Run from the root of the checkout:
#
#   bash naruperf/run.sh --workload dmv-open --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bin/naru" ./cmd/naru >&2
(cd naruperf && go build -o "$out/bin/naruperf" .) >&2
exec "$out/bin/naruperf" -root "$root" -naru "$out/bin/naru" "$@"
