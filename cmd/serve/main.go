// Command serve runs the long-lived sweep service: an HTTP/JSON server
// over the concurrent batch layer with one shared content-addressed
// result cache (optionally disk-backed) and shared per-worker workspace
// pools, so interactive design exploration is served cache-warm across
// clients and requests.
package main

import (
	"flag"
	"fmt"
	"os"

	"harvsim"
	"harvsim/cmd/internal/boot"
)

const usageFooter = `
Quickstart:
  serve -addr 127.0.0.1:8080 -cache-dir /tmp/harvsim-cache &
  curl -s localhost:8080/healthz
  curl -s -X POST localhost:8080/v1/sweep -d '{
    "spec": {
      "scenario": {"kind": "charge", "duration_s": 0.5, "set": {"initial_vc": 2.5}},
      "metric": "pstore-mean-settled",
      "axes": [
        {"kind": "int",   "param": "dickson.stages", "ints": [2,3,4,5,6,7]},
        {"kind": "float", "param": "dickson.cstage", "values": [1e-5,2.2e-5,4.7e-5]}
      ]
    }
  }'
  curl -sN localhost:8080/v1/jobs/sw-1/stream     # NDJSON, one line per result
  curl -s localhost:8080/v1/cache/stats
  curl -s localhost:8080/metrics                  # Prometheus text exposition

A repeated POST of the same spec is served entirely from the cache
(zero engine runs, bit-identical metrics); see README.md.
`

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port; the chosen address is printed)")
		workers     = flag.Int("workers", 0, "per-sweep worker pool cap (0 = GOMAXPROCS)")
		maxActive   = flag.Int("max-active", 0, "concurrently simulating sweeps; further sweeps queue (0 = 2)")
		maxJobs     = flag.Int("max-jobs", 0, "per-request expanded job budget (0 = 4096)")
		maxTime     = flag.Duration("max-request-time", 0, "per-request wall-clock budget ceiling (0 = 2m)")
		cacheCap    = flag.Int("cache-cap", 0, "in-memory cache entries (0 = default capacity)")
		cacheDir    = flag.String("cache-dir", "", "persist cached results under this directory (warm starts across restarts)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the service mux")
		alertFailed = flag.Float64("alert-failed", 0, "log an alert when cumulative failed jobs reach this count (0 = off)")
		alertP99    = flag.Float64("alert-exec-p99", 0, "log an alert when sweep-execution p99 reaches this many seconds (0 = off)")
		alertEvery  = flag.Duration("alert-interval", 0, "alert poll interval (0 = 10s)")
	)
	boot.Parse("serve",
		"Usage: serve [flags]\n\nLong-lived HTTP/JSON sweep service over the batch layer.\n\nFlags:\n", usageFooter)

	var cache *harvsim.Cache
	var err error
	if *cacheDir != "" {
		cache, err = harvsim.NewDiskCache(*cacheCap, *cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
	} else {
		cache = harvsim.NewCache(*cacheCap)
	}

	srv := harvsim.Serve(harvsim.ServeOptions{
		Workers:        *workers,
		MaxActive:      *maxActive,
		MaxJobs:        *maxJobs,
		MaxRequestTime: *maxTime,
		Cache:          cache,
	})

	if *alertFailed > 0 {
		srv.WatchFailed(*alertFailed)
	}
	if *alertP99 > 0 {
		srv.WatchExecP99(*alertP99)
	}
	var banner []string
	if *cacheDir != "" {
		banner = append(banner, "cache dir "+*cacheDir)
	}
	if err := boot.Serve(srv.Handler(), boot.Options{
		Name:       "serve",
		Addr:       *addr,
		Pprof:      *pprofOn,
		Alerts:     srv.Alerts(),
		AlertEvery: *alertEvery,
		Banner:     banner,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
}
