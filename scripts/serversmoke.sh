#!/usr/bin/env sh
# End-to-end smoke of the sweep service: builds cmd/serve, starts it on
# a kernel-assigned loopback port, POSTs the 64-point benchmark grid
# twice and asserts the warm repeat is served entirely from the shared
# cache (64/64 hits, zero engine runs) with bit-identical metrics, that
# the /metrics exposition agrees with the streamed summaries, and that a
# sweep point with a 0-stage multiplier fails alone without stopping the
# server.
# Requires curl and jq (both present on the CI runners).
set -e

WORK=$(mktemp -d)
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/serve" ./cmd/serve
"$WORK/serve" -addr 127.0.0.1:0 -pprof > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

# The server prints its resolved address; wait for it.
ADDR=
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^listening on //p' "$WORK/serve.log")
  [ -n "$ADDR" ] && break
  sleep 0.1
done
if [ -z "$ADDR" ]; then
  echo "serversmoke: server did not start" >&2
  cat "$WORK/serve.log" >&2
  exit 1
fi
BASE="http://$ADDR"

curl -fsS "$BASE/healthz" | jq -e '.status == "ok"' > /dev/null

# -pprof mounts net/http/pprof on the service mux: a 1-second CPU
# profile must come back 200 alongside the API routes.
PPROF_CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/pprof/profile?seconds=1")
if [ "$PPROF_CODE" != "200" ]; then
  echo "serversmoke: /debug/pprof/profile returned $PPROF_CODE, want 200" >&2
  exit 1
fi

# The repo's 64-point benchmark grid (bench_test.go batchSweepGrid) in
# its wire form: coil resistance x multiplier stages, charge scenario.
SPEC='{"spec":{"name":"grid","scenario":{"kind":"charge","duration_s":0.5,"set":{"initial_vc":2.5}},"axes":[{"kind":"float","param":"microgen.rc","values":[100,180,320,560,1000,1800,3200,5600]},{"kind":"int","param":"dickson.stages","ints":[3,4,5,6,7,8,9,10]}]}}'

run_sweep() {
  ID=$(curl -fsS -X POST "$BASE/v1/sweep" -H 'Content-Type: application/json' -d "$SPEC" | jq -r .id)
  curl -fsSN "$BASE/v1/jobs/$ID/stream"
}

run_sweep > "$WORK/cold.ndjson"
run_sweep > "$WORK/warm.ndjson"

summary() { jq -s 'map(select(.type=="summary"))[0]' "$1"; }
FAILED=$(summary "$WORK/cold.ndjson" | jq .failed)
if [ "$FAILED" != "0" ]; then
  echo "serversmoke: cold run failed $FAILED jobs" >&2
  exit 1
fi
HITS=$(summary "$WORK/warm.ndjson" | jq .cache_hits)
JOBS=$(summary "$WORK/warm.ndjson" | jq .jobs)
if [ "$HITS" != "64" ] || [ "$JOBS" != "64" ]; then
  echo "serversmoke: warm repeat served $HITS/$JOBS from cache, want 64/64" >&2
  exit 1
fi

# Bit-identical physics: the metric fields (and content-address keys) of
# the warm run must equal the cold run's, job for job. Timing and cache
# markers are excluded — those legitimately differ.
extract() {
  jq -c 'select(.type=="result") | [.index,.metric,.rms_power,.mean_power,.final_vc,.key]' "$1" | sort
}
extract "$WORK/cold.ndjson" > "$WORK/cold.metrics"
extract "$WORK/warm.ndjson" > "$WORK/warm.metrics"
if ! cmp -s "$WORK/cold.metrics" "$WORK/warm.metrics"; then
  echo "serversmoke: warm metrics differ from cold:" >&2
  diff "$WORK/cold.metrics" "$WORK/warm.metrics" >&2 || true
  exit 1
fi

curl -fsS "$BASE/v1/cache/stats" | jq -e '.entries == 64 and .hits >= 64' > /dev/null

# The Prometheus exposition must agree with the NDJSON summaries of the
# sweeps this same process just ran: two 64-job sweeps, the warm one a
# full cache serve, and the collect-time cache bridge matching
# /v1/cache/stats.
curl -fsS "$BASE/metrics" > "$WORK/metrics.txt"
metric() { sed -n "s/^$1 //p" "$WORK/metrics.txt"; }
BATCH_JOBS=$(metric harvsim_batch_jobs_total)
BATCH_HITS=$(metric harvsim_batch_cache_hits_total)
FINISHED=$(metric harvsim_server_sweeps_finished_total)
EXECS=$(metric harvsim_server_sweep_exec_seconds_count)
if [ "$BATCH_JOBS" != "128" ] || [ "$BATCH_HITS" != "$HITS" ] || \
   [ "$FINISHED" != "2" ] || [ "$EXECS" != "2" ]; then
  echo "serversmoke: /metrics disagrees with the streams: jobs=$BATCH_JOBS (want 128)" \
       "cache_hits=$BATCH_HITS (want $HITS) finished=$FINISHED execs=$EXECS (want 2)" >&2
  cat "$WORK/metrics.txt" >&2
  exit 1
fi
STATS_HITS=$(curl -fsS "$BASE/v1/cache/stats" | jq .hits)
if [ "$(metric harvsim_cache_hits_total)" != "$STATS_HITS" ]; then
  echo "serversmoke: harvsim_cache_hits_total != /v1/cache/stats hits ($STATS_HITS)" >&2
  exit 1
fi

# A point the wire compiles but the harvester rejects (a 0-stage
# multiplier) fails as one job, and the server goes on serving.
SPEC='{"spec":{"name":"bad","scenario":{"kind":"charge","duration_s":0.05},"axes":[{"kind":"int","param":"dickson.stages","ints":[0]}]}}'
run_sweep > "$WORK/bad.ndjson"
BAD_FAILED=$(summary "$WORK/bad.ndjson" | jq .failed)
if [ "$BAD_FAILED" != "1" ]; then
  echo "serversmoke: a 0-stage sweep reported $BAD_FAILED failed jobs, want 1" >&2
  cat "$WORK/serve.log" >&2
  exit 1
fi
if ! curl -fsS "$BASE/healthz" | jq -e '.status == "ok"' > /dev/null; then
  echo "serversmoke: server stopped answering after a 0-stage sweep" >&2
  cat "$WORK/serve.log" >&2
  exit 1
fi

echo "serversmoke OK: warm repeat $HITS/$JOBS cache hits, metrics bit-identical, /metrics consistent, bad point failed alone"
