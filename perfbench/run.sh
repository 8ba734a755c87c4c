#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Every build artefact stays under .bench_build/ at
# the root of the checkout; the benchmark's own scratch files go there too.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out/work" "$@"
