#!/usr/bin/env sh
# Coverage floors for the proposed engine and its linear algebra, for
# the diode's PWL tables, for the packages the nonlinear/stochastic
# workload lives in, for the batch runner and its result cache, for the
# two service packages, the log their streams share and the wire
# protocol they and their clients speak. Each floor is set ~5 points under the measured coverage at the
# time it was introduced (blocks 91.4% and harvester 86.0% when their
# floors were set; server 93.0% and shard 81.2% when the server and the
# coordinator came to share one front; wire 85.7% just before it gained
# the protocol's client half; core 78.5% and la 80.9% just before the
# Jacobian change log and the one-pass reduced-matrix solve; batch 85.0%
# and pwl 94.5% just before diodes came to share tables and cache keys
# came to be encoded in one pass; linelog 100% when the sweep streams
# came to share it), so routine drift passes but a change
# that lands a subsystem without tests, or folds route tests into a
# table that drops a case, fails.
# The wire floor is counted from wire's own tests alone, so the client
# cannot pass as covered through the coordinator's tests.
set -e
out=$(go test -cover ./internal/core ./internal/la ./internal/pwl ./internal/blocks ./internal/harvester ./internal/batch ./internal/linelog ./internal/server ./internal/shard ./internal/wire)
echo "$out"
echo "$out" | awk '
  $2 == "harvsim/internal/core"      { floor = 73 }
  $2 == "harvsim/internal/la"        { floor = 75 }
  $2 == "harvsim/internal/pwl"       { floor = 89 }
  $2 == "harvsim/internal/blocks"    { floor = 85 }
  $2 == "harvsim/internal/harvester" { floor = 80 }
  $2 == "harvsim/internal/batch"     { floor = 80 }
  $2 == "harvsim/internal/linelog"   { floor = 95 }
  $2 == "harvsim/internal/server"    { floor = 88 }
  $2 == "harvsim/internal/shard"     { floor = 76 }
  $2 == "harvsim/internal/wire"      { floor = 80 }
  floor > 0 {
    cov = ""
    for (i = 1; i <= NF; i++) if ($i == "coverage:") cov = $(i + 1)
    sub(/%/, "", cov)
    if (cov == "" || cov + 0 < floor) {
      printf "FAIL: %s coverage %s%% below floor %d%%\n", $2, cov, floor
      bad = 1
    } else {
      printf "OK: %s coverage %s%% >= floor %d%%\n", $2, cov, floor
    }
    floor = 0
  }
  END { exit bad }
'
