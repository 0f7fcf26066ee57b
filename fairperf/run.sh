#!/usr/bin/env bash
# Builds the fairperf benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash fairperf/run.sh --workload smartnic-line --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under $CARGO_TARGET_DIR, default .bench_build, in the current
# directory. Without the simulator's sources next to fairperf/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$build/fairperf" .)
exec "$build/fairperf" "$@"
