#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload files --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the root of a strudel checkout (go.mod, internal/ and benchmark/ are missing here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/home"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go -C "$root/benchmark" build -o "$out/strudel-benchmark" .
exec "$out/strudel-benchmark" "$@"
