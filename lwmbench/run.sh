#!/usr/bin/env bash
# Builds the lwmd service benchmark from the checkout it is run in and
# runs it. Run from the repository root:
#
#   bash lwmbench/run.sh --workload audit --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, binary, temp store
# directories, span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
(cd "$here" && go build -o "$out/lwmbench" .)
exec "$out/lwmbench" "$@"
