#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload plan-mix --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, per-run state dirs, span
# dumps) goes under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/service || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (go.mod, internal/service and e2ebench/go.mod must be present)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local
(cd e2ebench && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" --work-dir "$build" "$@"
