#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments.  Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload intersect-wire --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare parent.log change.log
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (or under $CARGO_TARGET_DIR when it is set).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the checkout" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
# The go command keeps its telemetry counters under the user's config
# directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
export PERFBENCH_WORKDIR="$build"
exec "$build/perfbench" "$@"
