#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain writes (build cache, module cache, telemetry) inside the
# checkout under .bench_build/. Arguments go to the benchmark unchanged.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw

go -C "$here" build -o "$out/daiet-benchmark" .
exec "$out/daiet-benchmark" "$@"
