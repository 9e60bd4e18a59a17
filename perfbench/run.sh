#!/usr/bin/env bash
# Builds the benchmark driver and primepard from this checkout's sources,
# then runs the driver with the given arguments. Run from the repo root:
#
#   bash perfbench/run.sh --workload plan3d-cold --seed 1 --seconds 20 --trace 0
#
# Every build artefact, cache and temporary file stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
unset PRIMEPAR_WORKERS GOMAXPROCS
(cd "$root/perfbench" &&
	go build -o "$out/bin/perfbench" . &&
	go build -o "$out/bin/primepard" repro/cmd/primepard) >&2
exec "$out/bin/perfbench" -root "$root" -primepard "$out/bin/primepard" "$@"
