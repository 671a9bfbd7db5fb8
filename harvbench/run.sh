#!/usr/bin/env bash
# Builds the harvsim benchmark from the sources of the checkout it sits in
# and runs it with the given arguments:
#
#   bash harvbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artefact (binary, Go build cache, temporary files) stays
# under .bench_build at the checkout root. The build output goes to
# standard error, so the last line of standard output is the benchmark's
# JSON result. Without the repository's own sources next to this
# directory the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/harvbench" && go build -o "$out/harvbench" .) >&2
exec "$out/harvbench" "$@"
