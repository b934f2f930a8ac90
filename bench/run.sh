#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes —
# the Go build cache, the binary, results, traces, scratch — stays under
# .bench_build/ in the checkout. In a directory that holds only
# BENCHMARK.json and bench/ the build fails (the program is absent) and
# the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
export BENCH_COMMIT
(cd "$here" && go build -o "$build/bench" .)
case "${1:-}" in
compare) exec "$build/bench" "$@" ;;
*) exec "$build/bench" -out "$build/out" "$@" ;;
esac
