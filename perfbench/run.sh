#!/usr/bin/env bash
# Builds the benchmark and the programs it drives from this checkout,
# then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload dse-local --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/ecoserve || ! -d cmd/ecoreplica ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ecoserve, cmd/ecoreplica not found)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$out/bin/" ./cmd/ecoserve ./cmd/ecoreplica ./perfbench >&2
exec "$out/bin/perfbench" --bin "$out/bin" --out "$out/traces" "$@"
