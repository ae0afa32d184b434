#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in (the current
# directory must be the repository root) and runs it; every argument is
# passed through, e.g.
#   bash athenabench/run.sh --workload flood-sync --seed 1 --seconds 16 --trace 0
# Build caches and outputs stay under .bench_build in the checkout.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/athenabench" && go build -o "$out/athenabench" .)
exec "$out/athenabench" "$@"
