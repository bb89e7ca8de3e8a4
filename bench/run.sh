#!/usr/bin/env bash
# Builds the benchmark and runs it; this is the `command` of BENCHMARK.json.
# Everything the build leaves behind (binaries, the Go build cache) stays in
# .bench_build/ at the root of the checkout, so a run reads and writes
# nothing outside it. The odpnode child of rpc_xproc is built by the
# benchmark itself (timed as loadgen.build_s) into the same directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go tool keeps its caches, its configuration and its telemetry
# counters under the home directory, and builds in the temporary directory,
# unless told otherwise.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" "$@"
