#!/usr/bin/env bash
# Builds dyntcd and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Everything built or written stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dyntcd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a dyntc checkout (go.mod, cmd/dyntcd, perfbench/)" >&2
	exit 2
fi
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR" "$build/bin"
go build -o "$build/bin/dyntcd" ./cmd/dyntcd
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" --dyntcd "$build/bin/dyntcd" --work "$build/perfbench" "$@"
