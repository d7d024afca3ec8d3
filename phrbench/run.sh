#!/usr/bin/env bash
# Builds the PHR disclosure benchmark from source and runs it. Run it from
# the repository root; every argument passes through to the benchmark:
#
#   bash phrbench/run.sh --workload cold-disclose --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache, scratch data and trace files all stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/phrbench" .) >&2
exec "$out/phrbench" -out "$out" "$@"
