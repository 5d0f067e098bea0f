#!/usr/bin/env bash
# Builds the serving benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload hetero-emulated --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache, trace output) stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOTMPDIR="${out}/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "${out}/perfbench" . >&2
exec "${out}/perfbench" -out "${out}/trace" "$@"
