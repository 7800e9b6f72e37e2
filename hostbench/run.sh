#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it with the given
# arguments. Everything the build and the runs write (Go build cache,
# temporary files, the binary, span files) stays under .bench_build/ at
# the repository root.
#
#   bash hostbench/run.sh --workload fig2-paper --seed 1 --seconds 40 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/hostbench" && go build -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
