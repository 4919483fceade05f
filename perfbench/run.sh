#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the arguments
# given, for example (from the repository root):
#
#   bash perfbench/run.sh --workload read-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind (Go build cache, temporary files, the
# binary) stays under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config/go/telemetry"
# Telemetry off: otherwise the go command forks a telemetry process that
# it does not wait for and that can outlive this script.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=vendor GOPROXY=off GOTOOLCHAIN=local
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
