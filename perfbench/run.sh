#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's own sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# stores, trace files) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -workdir "$build" "$@"
