#!/usr/bin/env bash
# Builds servebench from the checkout it is run in and runs it with the
# given arguments, e.g. from the repository root:
#
#   bash servebench/run.sh --workload ndjson-http --seed 1 --seconds 10 --trace 0
#
# Build cache, temporaries and the binary stay under ./.bench_build.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=$(pwd)/.bench_build
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # go telemetry counters
mkdir -p "$GOTMPDIR"
(cd "$here" && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" "$@"
