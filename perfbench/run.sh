#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with
# the given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload repro --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The build needs nothing from the network: the module requires only
# the repository itself, through a replace directive.
export GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -out "$build/out" "$@"
