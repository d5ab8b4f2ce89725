#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run from the repository root:
#
#   bash twcabench/run.sh --workload warm-unary --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span dumps stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/service" ]]; then
	echo "twcabench: run from the repository root; the sources to build are missing" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
(cd "$root/twcabench" && go build -o "$out/twcabench" .) >&2
exec "$out/twcabench" "$@"
