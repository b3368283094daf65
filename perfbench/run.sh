#!/usr/bin/env bash
# Builds dcsd and the benchmark from this checkout's sources, then runs the
# benchmark with the given arguments. Every build product, cache and temporary
# file stays under .bench_build/ in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
# The go command starts a detached telemetry child that outlives it unless
# telemetry is off; the mode file under the config directory turns it off.
mkdir -p "$out/home/go/telemetry"
echo off >"$out/home/go/telemetry/mode"
go build -o "$out/bin/dcsd" ./cmd/dcsd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -dcsd "$out/bin/dcsd" -work "$out/work" "$@"
