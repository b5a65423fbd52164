#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there, passing every argument through.
# Nothing is read or written outside the checkout: the Go build cache is
# kept in .bench_build/ too, and the toolchain is the installed one.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/gopath" GOENV=off GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
