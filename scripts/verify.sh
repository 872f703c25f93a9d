#!/bin/sh
# Verification gates, in escalating cost order. Tier 1 is the hard gate
# every PR must keep green (see ROADMAP.md); tier 2 adds static analysis
# and the race detector, which the concurrent engine (internal/engine)
# treats as part of its correctness contract rather than an optional
# extra. Run from the repository root: ./scripts/verify.sh
set -eu
cd "$(dirname "$0")/.."

echo "== tier 1: format + build + tests =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt would rewrite:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go build ./...
# lwmbench/ is its own module, so ./... skips it; build it explicitly so
# an API change that breaks the benchmark fails here.
(cd lwmbench && go build ./...)
# -shuffle=on randomizes in-package test order so hidden inter-test
# state dependencies surface here (the seed prints on failure).
go test -shuffle=on ./...

echo "== tier 2: vet + race detector =="
go vet ./...
go test -race ./...

echo "verify: all tiers passed"
