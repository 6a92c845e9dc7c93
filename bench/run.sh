#!/usr/bin/env bash
# Builds socbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload plan-warm --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the
# go command's own config and telemetry, and every temporary file stay
# under .bench_build/ in the checkout; the build needs no network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/socbench" ./socbench)
exec "$out/socbench" "$@"
