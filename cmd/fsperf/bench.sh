#!/usr/bin/env bash
# Builds fsperf from source and runs one benchmark invocation:
#
#   bash cmd/fsperf/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build cache, the binary and the
# trace file stay under .bench_build/ in that directory. --trace 1 runs
# the traced variant and writes .bench_build/trace-NAME.json.
set -euo pipefail

workload= seed=1 seconds=10 trace=0
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload=$2 ;;
	--seed) seed=$2 ;;
	--seconds) seconds=$2 ;;
	--trace) trace=$2 ;;
	*)
		echo "bench.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
	shift 2
done

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench.sh: no simulator sources here; run from the repository root" >&2
	exit 1
fi

out=$PWD/.bench_build
mkdir -p "$out/tmp"
# Keep every file the go command writes inside the checkout.
export GOCACHE=$out/go-cache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=
go -C cmd/fsperf build -o "$out/fsperf" .

args=(-workload "$workload" -seed "$seed" -seconds "$seconds")
if [ "$trace" = 1 ]; then
	args+=(-trace "$out/trace-$workload.json")
fi
exec "$out/fsperf" "${args[@]}"
