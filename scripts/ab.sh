#!/bin/bash
# Runs the repository benchmark on a reference commit and on the work
# tree in alternated pairs and compares them (cmd/abreport):
#   bash scripts/ab.sh REF "WORKLOAD..." N
# The reference is REF's committed files, extracted under .bench_build/;
# both ./benchmark binaries are built once. Pair i runs the reference
# first when i is odd and the change first when it is even, each run for
# BENCHMARK.json's run_seconds with seed 1. Every run's output is kept
# under .bench_build/ab-runs/; the report goes to standard output and the
# exit status is non-zero on a metric worse than its bound, a failed
# operation or a fingerprint that differs.
set -eu
ref=$1 workloads=$2 n=$3
root=$PWD
build=$root/.bench_build
sha=$(git rev-parse --short "$ref^{commit}")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
mkdir -p "$build/tmp"

refdir=$build/ab-src-$sha
rm -rf "$refdir"
mkdir -p "$refdir"
git archive "$sha" | tar -x -C "$refdir"
(cd "$refdir" && go build -o "$build/ab-bin-ref" ./benchmark)
go build -o "$build/ab-bin-new" ./benchmark

out=$build/ab-runs/$sha-$(date +%Y%m%d-%H%M%S)
for w in $workloads; do
	mkdir -p "$out/$w"
	for i in $(seq 1 "$n"); do
		order="ref new"
		if [ $((i % 2)) -eq 0 ]; then order="new ref"; fi
		for side in $order; do
			dir=$root
			if [ "$side" = ref ]; then dir=$refdir; fi
			echo "$w pair $i/$n: $side" >&2
			(cd "$dir" && mkdir -p benchmark/out &&
				"$build/ab-bin-$side" -workload "$w" -seed 1 -seconds "$seconds" -trace 0) >"$out/$w/$side-$i.txt"
		done
	done
done
echo "runs kept in $out" >&2
go run ./cmd/abreport -spec BENCHMARK.json "$out"
