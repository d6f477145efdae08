#!/usr/bin/env bash
# Builds arcbench from this checkout and runs it with the given flags:
#   bash arcbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
# Run from the repository root. Build outputs, the Go build cache and
# every scratch file stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/arcbench" && go build -o "$out/arcbench" .)
# -start-ns marks the process start, so setup_s counts exec and runtime
# start-up but not the build above.
exec "$out/arcbench" -work "$out" -dir "$root/arcbench" -start-ns "$(date +%s%N)" "$@"
