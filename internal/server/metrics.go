package server

import (
	"harvsim/internal/batch"
	"harvsim/internal/metrics"
)

// serverMetrics is the local executor's instrument bundle, registered
// on the front's registry next to its sweep counters and served by GET
// /metrics. The batch bundle (harvsim_batch_*) shares the same
// registry, so one scrape sees job-level and sweep-level views of the
// same traffic.
type serverMetrics struct {
	// queueSeconds observes how long each sweep waited for a MaxActive
	// execution slot; execSeconds observes the execution wall that
	// follows. Keeping them separate is the point — their sum is the
	// client-visible latency, but only execSeconds says anything about
	// engine throughput (see wire.Summary.QueuedMS).
	queueSeconds *metrics.Histogram
	execSeconds  *metrics.Histogram
}

// newServerMetrics registers the execution histograms plus collect-time
// bridges to the shared cache's own counters (the cache keeps its
// stats; /metrics just reads them at scrape time, so the numbers always
// agree with GET /v1/cache/stats).
func newServerMetrics(r *metrics.Registry, cache *batch.Cache) *serverMetrics {
	m := &serverMetrics{
		queueSeconds: r.Histogram("harvsim_server_sweep_queue_seconds",
			"Time each sweep waited for a MaxActive execution slot.", nil),
		execSeconds: r.Histogram("harvsim_server_sweep_exec_seconds",
			"Execution wall time per sweep, queue wait excluded.", nil),
	}
	r.CounterFunc("harvsim_cache_hits_total", "Result-cache lookups served from the cache.",
		func() int64 { return cache.Stats().Hits })
	r.CounterFunc("harvsim_cache_misses_total", "Result-cache lookups that fell through to a fresh run.",
		func() int64 { return cache.Stats().Misses })
	r.CounterFunc("harvsim_cache_shared_total", "Cache misses resolved by in-flight dedup (singleflight).",
		func() int64 { return cache.Stats().Shared })
	r.CounterFunc("harvsim_cache_stale_total", "Disk entries ignored as stale or unreadable.",
		func() int64 { return cache.Stats().Stale })
	r.CounterFunc("harvsim_cache_disk_hits_total", "Cache hits satisfied by the on-disk store.",
		func() int64 { return cache.Stats().DiskHits })
	r.CounterFunc("harvsim_cache_evictions_total", "In-memory cache entries dropped by the LRU bound.",
		func() int64 { return cache.Stats().Evictions })
	r.GaugeFunc("harvsim_cache_entries", "Current in-memory cache entry count.",
		func() float64 { return float64(cache.Stats().Entries) })
	return m
}
