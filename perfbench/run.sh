#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it.
#
#   bash perfbench/run.sh --workload fig7-full --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache, the go command's own config and
# telemetry files, span files and the counter ledger go to
# $CARGO_TARGET_DIR (default .bench_build) at the tree's root, so a run
# writes nothing outside the tree.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
