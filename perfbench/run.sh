#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source in this checkout and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build
# cache and the benchmark's scratch data all live under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the checkout too.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out/perfbench-data" "$@"
