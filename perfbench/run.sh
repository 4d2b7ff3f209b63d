#!/usr/bin/env bash
# Builds the bf4 benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload <corpus|switch1|static|shim> --seed N --seconds S --trace 0|1
# Run from the repository root. Build output, the Go build cache and the
# traced run's span dumps all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
# Go's release archives install to /usr/local/go; use it when go is not on PATH.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/bf4perf" .) >&2
exec "$out/bf4perf" --out-dir "$out" "$@"
