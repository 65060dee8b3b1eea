#!/usr/bin/env bash
# Builds credoserved and the servebench harness from the checkout in the
# current directory, then runs the harness with the given arguments:
#
#   bash servebench/run.sh --workload watch --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$out/bin" "$GOTMPDIR"

go build -o "$out/bin/credoserved" ./cmd/credoserved >&2
(cd servebench && go build -o "$out/bin/servebench" .) >&2
exec "$out/bin/servebench" --root "$root" "$@"
