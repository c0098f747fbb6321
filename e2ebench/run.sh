#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash e2ebench/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and temporary files, node data and span
# files all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
