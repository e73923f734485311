#!/usr/bin/env bash
# Driver entry point: build the harness from source inside the checkout, then
# run it with the arguments given
#   (--workload NAME --seed N --seconds N --trace 0|1).
# Every file the build and the run write stays under the checkout: the Go
# build cache and the binary in .bench_build/, traces and result files in
# bench/out/. Run from the repository root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
go build -o "$build/spotweb-bench" ./bench
exec "$build/spotweb-bench" "$@"
