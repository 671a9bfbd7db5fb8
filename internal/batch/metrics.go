package batch

import (
	"time"

	"harvsim/internal/metrics"
)

// Metrics is the batch layer's instrument bundle. A long-lived front-end
// (the sweep server, the shard coordinator's workers) creates one per
// process with NewMetrics and sets it on every Run's Options; the
// counters then accumulate across requests, which is what a scrape-based
// collector wants. A nil *Metrics (the zero Options) records nothing —
// every instrument is nil-safe — so library callers and tests pay no
// observability tax.
type Metrics struct {
	// Jobs counts every job that produced a Result, whatever its outcome
	// (fresh, cached, shared, failed, cancelled-before-start).
	Jobs *metrics.Counter
	// Failed counts results with a non-nil Err, cancellations included.
	Failed *metrics.Counter
	// CacheHits counts results served from the content-addressed cache
	// (Result.Cached), singleflight shares included.
	CacheHits *metrics.Counter
	// Shared counts the singleflight subset of cache hits
	// (Result.Shared): jobs that waited on an identical in-flight
	// computation instead of recomputing it.
	Shared *metrics.Counter
	// EngineRunSeconds observes the wall time of every engine march that
	// actually simulated: one observation per fresh run. Cache hits and
	// shares are excluded — they elide the engine.
	EngineRunSeconds *metrics.Histogram
}

// NewMetrics registers the batch instrument bundle on r under the
// harvsim_batch_* namespace and returns it. Register at most once per
// registry (duplicate names panic, by design).
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Jobs:      r.Counter("harvsim_batch_jobs_total", "Jobs that produced a result, whatever the outcome."),
		Failed:    r.Counter("harvsim_batch_failed_total", "Jobs whose result carries an error (cancellations included)."),
		CacheHits: r.Counter("harvsim_batch_cache_hits_total", "Jobs served from the content-addressed result cache (singleflight shares included)."),
		Shared:    r.Counter("harvsim_batch_shared_total", "Cache hits obtained by waiting on an identical in-flight computation (singleflight)."),
		EngineRunSeconds: r.Histogram("harvsim_batch_engine_run_seconds",
			"Wall time of engine marches that actually simulated (one observation per fresh run).", nil),
	}
}

// observe records one finished Result. Safe on a nil receiver.
func (m *Metrics) observe(res Result) {
	if m == nil {
		return
	}
	m.Jobs.Inc()
	if res.Err != nil {
		m.Failed.Inc()
	}
	if res.Cached {
		m.CacheHits.Inc()
	}
	if res.Shared {
		m.Shared.Inc()
	}
}

// observeEngineRun records the wall time of one engine march. Safe on a
// nil receiver.
func (m *Metrics) observeEngineRun(d time.Duration) {
	if m == nil {
		return
	}
	m.EngineRunSeconds.Observe(d.Seconds())
}
