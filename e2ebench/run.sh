#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash e2ebench/run.sh --workload fig5-t32 --seed 7 --seconds 30 --trace 0
#
# The binary, the Go build cache and every other file the toolchain writes
# stay under .bench_build in the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C "$here" build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" "$@"
