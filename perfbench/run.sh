#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run it from
# the repository root with perfbench's flags, for example
#
#   bash perfbench/run.sh --workload compute --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the traced run's Chrome trace files go
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" -root "$root" "$@"
