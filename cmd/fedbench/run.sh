#!/usr/bin/env bash
# Builds fedbench from source and runs it from the repository root with the
# given arguments, e.g.
#
#   bash cmd/fedbench/run.sh --workload plane --seed 1 --seconds 8 --trace 0
#
# The binary, the Go build cache and temporary files stay under
# .bench_build in the repository, and the Go toolchain is kept offline.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/cmd/fedbench" && go build -o "$build/fedbench" .)
cd "$root"
exec "$build/fedbench" "$@"
