#!/usr/bin/env bash
# Builds the benchmark (cmd/perfbench) from this checkout's source and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload mp3d-16 --seed 1 --seconds 25 --trace 0
#
# The build cache, temporary files and binary stay in .bench_build.
set -euo pipefail
if [[ ! -f go.mod ]]; then
	echo "perfbench: run from the root of a tilesim checkout (no go.mod here)" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
HOME="$out/home" GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" \
	go build -o "$out/perfbench" ./perfbench/cmd/perfbench
exec "$out/perfbench" "$@"
