// Command coord runs the sharded sweep coordinator: it fronts a fleet
// of sweep services (cmd/serve) behind the same versioned wire API a
// single worker speaks, partitions each sweep across the fleet by
// consistent hash on the jobs' content-address keys (each design point
// lands on the worker whose cache already holds it), merges the
// per-worker NDJSON streams into one globally indexed stream, and
// re-shards the unfinished jobs of a worker lost mid-sweep onto the
// survivors. Clients cannot tell it from a single cmd/serve.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"harvsim"
	"harvsim/cmd/internal/boot"
)

const usageFooter = `
Quickstart (three workers and a coordinator):
  serve -addr 127.0.0.1:8081 -cache-dir /tmp/hs-w1 &
  serve -addr 127.0.0.1:8082 -cache-dir /tmp/hs-w2 &
  serve -addr 127.0.0.1:8083 -cache-dir /tmp/hs-w3 &
  coord -addr 127.0.0.1:8080 \
    -workers http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 &

  curl -s localhost:8080/v1/workers            # states: live | draining | lost
  curl -s -X POST localhost:8080/v1/sweep -d @spec.json
  curl -sN localhost:8080/v1/jobs/co-1/stream  # one merged NDJSON stream
  curl -s localhost:8080/metrics               # fleet counters, per-worker latency
  curl -s -X POST 'localhost:8080/v1/workers/drain?worker=http://127.0.0.1:8082'

A draining worker takes no new shards but finishes its in-flight ones
(planned maintenance without tripping the loss machinery). The
coordinator accepts the exact spec a single worker accepts; the
merged stream is bit-identical to a single-host run of the same spec,
even when a worker dies mid-sweep (its unfinished jobs are re-sharded
onto the survivors). See README.md "Operating the fleet".
`

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port; the chosen address is printed)")
		workers       = flag.String("workers", "", "comma-separated base URLs of the worker fleet (required)")
		maxJobs       = flag.Int("max-jobs", 0, "per-request expanded job budget across the whole fleet (0 = 4096)")
		maxTime       = flag.Duration("max-request-time", 0, "per-request wall-clock budget ceiling (0 = 2m)")
		healthTimeout = flag.Duration("health-timeout", 0, "per-probe worker health-check timeout (0 = 2s)")
		maxRetries    = flag.Int("max-retries", 0, "stream-resume attempts against a worker that still answers health checks before it is declared lost (0 = 2)")
		pprofOn       = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the coordinator mux")
		alertLost     = flag.Float64("alert-lost", 0, "log an alert when cumulative lost workers reach this count (0 = off)")
		alertP99      = flag.Float64("alert-shard-p99", 0, "log an alert when any worker's shard p99 reaches this many seconds (0 = off)")
		alertEvery    = flag.Duration("alert-interval", 0, "alert poll interval (0 = 10s)")
	)
	boot.Parse("coord",
		"Usage: coord -workers <url,url,...> [flags]\n\nSharded sweep coordinator over a fleet of sweep services.\n\nFlags:\n", usageFooter)

	var fleet []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			fleet = append(fleet, strings.TrimRight(w, "/"))
		}
	}
	if len(fleet) == 0 {
		fmt.Fprintln(os.Stderr, "coord: -workers is required (comma-separated worker base URLs)")
		flag.Usage()
		os.Exit(2)
	}

	coord := harvsim.Coordinate(harvsim.CoordinateOptions{
		Workers:        fleet,
		MaxJobs:        *maxJobs,
		MaxRequestTime: *maxTime,
		HealthTimeout:  *healthTimeout,
		MaxRetries:     *maxRetries,
	})

	if *alertLost > 0 {
		coord.WatchLostWorkers(*alertLost)
	}
	if *alertP99 > 0 {
		coord.WatchShardP99(*alertP99)
	}
	if err := boot.Serve(coord.Handler(), boot.Options{
		Name:       "coord",
		Addr:       *addr,
		Pprof:      *pprofOn,
		Alerts:     coord.Alerts(),
		AlertEvery: *alertEvery,
		Banner:     []string{fmt.Sprintf("fleet of %d workers: %s", len(fleet), strings.Join(fleet, " "))},
	}); err != nil {
		fmt.Fprintf(os.Stderr, "coord: %v\n", err)
		os.Exit(1)
	}
}
