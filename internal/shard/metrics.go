package shard

import (
	"harvsim/internal/metrics"
)

// coordMetrics is the fan-out executor's instrument bundle, registered
// on the front's registry next to its sweep counters and served by GET
// /metrics. Fleet-health counters (resharded, retries, lost workers)
// accumulate the same numbers each sweep's summary line reports, so a
// scrape and the NDJSON stream can be cross-checked; per-worker shard
// latency localises a slow or overloaded worker without log digging.
type coordMetrics struct {
	results     *metrics.Counter
	resharded   *metrics.Counter
	retries     *metrics.Counter
	lostWorkers *metrics.Counter
	// shardSeconds observes submit-to-summary wall time of each
	// successfully streamed shard, labelled by the worker that served it.
	shardSeconds *metrics.HistogramVec
}

// newCoordMetrics registers the coordinator instruments plus a
// collect-time bridge into the drain set.
func newCoordMetrics(r *metrics.Registry, c *Coordinator) *coordMetrics {
	m := &coordMetrics{
		results:     r.Counter("harvsim_coord_results_total", "Result lines merged into coordinated streams (exactly-once, post-dedup)."),
		resharded:   r.Counter("harvsim_coord_resharded_total", "Jobs re-assigned to surviving workers after a worker was lost mid-sweep."),
		retries:     r.Counter("harvsim_coord_retries_total", "Shard stream resumes (?from cursor) that recovered a shard without re-sharding."),
		lostWorkers: r.Counter("harvsim_coord_lost_workers_total", "Workers declared dead during a sweep."),
		shardSeconds: r.HistogramVec("harvsim_coord_shard_seconds",
			"Submit-to-summary wall time per successfully streamed shard.", "worker", nil),
	}
	r.GaugeFunc("harvsim_coord_workers_draining", "Workers currently marked draining.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.draining))
		})
	return m
}
