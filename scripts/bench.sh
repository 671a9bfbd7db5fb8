#!/usr/bin/env sh
# Runs the gated benchmark set and prints raw `go test -bench` output.
# Used by the CI bench job and for regenerating the committed baseline:
#
#   ./scripts/bench.sh > bench.out
#   go run ./cmd/benchgate -parse bench.out -baseline BENCH_10.json            # gate
#   go run ./cmd/benchgate -parse bench.out -baseline BENCH_10.json -write-baseline  # refresh
#
# The table/sweep benchmarks are full simulations (hundreds of ms per
# op), so one timed iteration is already stable; the warm-step
# micro-benchmark needs a fixed large iteration count or a single step's
# jitter would dominate, and the warm-cache sweep and warm server sweep
# (pure lookups / service-path overhead, micro- to milliseconds per op)
# get moderate fixed counts for the same reason. -count 3 lets the
# parser keep the per-benchmark minimum, the conventional noise floor.
set -e
go test -run '^$' -bench 'Benchmark(Table1|Table2|BatchSweep|DuffingNoise|Bistable_|SweepCache_Cold|ServerSweep_Cold|EnsembleLockstep|CoordSweep)' -benchmem -benchtime 1x -count 3 .
go test -run '^$' -bench 'BenchmarkSweepCache_Warm$' -benchmem -benchtime 50x -count 3 .
go test -run '^$' -bench 'BenchmarkBistableBasinReduction$' -benchmem -benchtime 200x -count 3 .
go test -run '^$' -bench 'BenchmarkServerSweep_Warm$' -benchmem -benchtime 20x -count 3 .
go test -run '^$' -bench 'BenchmarkWarmStep$' -benchmem -benchtime 100000x -count 3 .
go test -run '^$' -bench 'BenchmarkTraceOverhead_On$' -benchmem -benchtime 100000x -count 3 .
