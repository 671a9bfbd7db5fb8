// Package server is the long-lived sweep service: an HTTP/JSON front-end
// over the batch layer that turns one-shot CLI sweeps into a shared,
// cache-warm design-exploration endpoint. One server process owns
//
//   - one content-addressed result cache shared by every request (so a
//     design point any client ever computed is a lookup for all of
//     them, and concurrent identical jobs are deduplicated in flight by
//     the cache's singleflight), and
//   - one workspace-pool cache, so request N's workers inherit request
//     N-1's warmed same-shape workspaces.
//
// The server is a Front (front.go) with a local executor; the shard
// coordinator (internal/shard) is the same front with a fan-out
// executor, so both serve these routes with the same validation,
// budgets and error envelope (GET /v1/cache/stats is the server's own):
//
//	POST   /v1/sweep            submit a wire.SweepRequest; returns 202 + job id
//	GET    /v1/jobs/{id}        job status (add ?results=1 for the full list when done)
//	GET    /v1/jobs/{id}/stream NDJSON: one wire.Result line per job as it
//	                            completes, then one wire.Summary line;
//	                            ?from=<n> skips the first n replay lines
//	GET    /v1/jobs/{id}/trace  NDJSON: one wire.SpanLine per finished
//	                            span of a traced sweep's flight recorder
//	                            (404 when the sweep was not traced);
//	                            ?from=<n> resumes past the first n spans
//	DELETE /v1/jobs/{id}        cancel a running sweep
//	GET    /v1/cache/stats      shared cache counters
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness
//
// Every non-2xx response carries the canonical JSON error envelope
// {"error":{"code","message","retryable"}} (see wire.Error), including
// mux-generated 404/405s — the front's canonicalErrors middleware
// guarantees it.
//
// Budgets: a request's expansion is bounded by Options.MaxJobs and its
// wall clock by Options.MaxRequestTime (clients may ask for less via
// budget_ms, never more); the deadline propagates as context
// cancellation into batch.Run, so an expired sweep stops between jobs
// and reports the unstarted remainder as cancelled. Options.MaxActive
// bounds how many sweeps simulate concurrently; excess sweeps queue.
//
// Sharding: a request may carry "indices" — a strictly increasing subset
// of the spec's row-major expansion — and the server then expands and
// runs only those jobs (batch.SweepSpec.JobsAt), while result lines keep
// the global expansion indices. That is the worker half of the shard
// coordinator protocol (internal/shard): the full grid must still clear
// this server's MaxJobs budget, because the declared axis product is
// validated before compilation either way.
package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// Options configures a Server. The zero value is ready for tests: an
// in-memory cache, GOMAXPROCS workers, default budgets.
type Options struct {
	// Workers caps the per-sweep worker pool (and is the default when a
	// request does not ask for fewer). 0 = GOMAXPROCS.
	Workers int
	// MaxActive bounds concurrently simulating sweeps; further sweeps
	// queue in submission order. 0 = 2.
	MaxActive int
	// MaxJobs rejects requests expanding beyond this many jobs (413).
	// 0 = 4096.
	MaxJobs int
	// MaxRequestTime is the wall-clock budget ceiling per sweep; the
	// sweep's context is cancelled when it expires. 0 = 120s.
	MaxRequestTime time.Duration
	// Cache is the shared result store; nil builds an in-memory cache
	// with the default capacity.
	Cache *batch.Cache
	// KeepFinished bounds how many finished untraced sweeps stay
	// queryable; oldest are dropped first. 0 = 128. Finished traced
	// sweeps stay while their spans fit one flight recorder's capacity.
	KeepFinished int
}

// Server is the sweep service: the shared Front (Handler, ServeHTTP,
// Metrics, Alerts) over a local executor that runs each sweep through
// batch.Run on the shared cache and workspace pools. Create with New.
type Server struct {
	*Front
	opt     Options
	cache   *batch.Cache
	pools   *batch.PoolCache
	sem     chan struct{}
	metrics *serverMetrics
	batchM  *batch.Metrics

	// lineMu guards last, the turn of the most recently accepted sweep:
	// closed once that sweep has taken a slot or left the queue. Each
	// sweep waits for its predecessor's turn before it tries for a slot,
	// so sweeps are admitted in acceptance order.
	lineMu sync.Mutex
	last   chan struct{}
}

// New builds a server. The cache (Options.Cache or a fresh in-memory
// one) and the workspace pools live as long as the server: every
// request shares them.
func New(opt Options) *Server {
	if opt.MaxActive <= 0 {
		opt.MaxActive = 2
	}
	s := &Server{
		opt:   opt,
		cache: opt.Cache,
		pools: batch.NewPoolCache(),
		sem:   make(chan struct{}, opt.MaxActive),
		last:  make(chan struct{}),
	}
	close(s.last)
	if s.cache == nil {
		s.cache = batch.NewCache(0)
	}
	s.Front = NewFront(FrontOptions{
		Service:        "server",
		IDPrefix:       "sw-",
		MaxJobs:        opt.MaxJobs,
		MaxRequestTime: opt.MaxRequestTime,
		KeepFinished:   opt.KeepFinished,
		Routes:         map[string]http.HandlerFunc{"GET /v1/cache/stats": s.handleCacheStats},
		Plan:           s.plan,
		Health:         func(h *wire.Health) { h.CacheEntries = s.cache.Stats().Entries },
	})
	s.batchM = batch.NewMetrics(s.Metrics())
	s.metrics = newServerMetrics(s.Metrics(), s.cache)
	return s
}

// Cache exposes the shared result cache (for priming or inspection by
// an embedding process).
func (s *Server) Cache() *batch.Cache { return s.cache }

// WatchFailed arms an alert on the cumulative failed-jobs counter
// (harvsim_batch_failed_total) reaching bound.
func (s *Server) WatchFailed(bound float64) {
	s.Alerts().Watch("failed_total", bound, func() float64 { return float64(s.batchM.Failed.Value()) })
}

// WatchExecP99 arms an alert on the p99 of sweep execution wall time
// (harvsim_server_sweep_exec_seconds) reaching bound seconds.
func (s *Server) WatchExecP99(bound float64) {
	s.Alerts().Watch("exec_p99_seconds", bound, func() float64 { return s.metrics.execSeconds.Quantile(0.99) })
}

// plan is the local executor. It clamps the request's worker pool, puts
// the sweep in line behind the one accepted before it, and returns the
// Exec that waits for a MaxActive slot in that order and runs the jobs
// through batch.Run. The root span's queue/exec children split the same
// clock the summary's QueuedMS/WallMS report.
func (s *Server) plan(_ http.ResponseWriter, _ *http.Request, req wire.SweepRequest, jobs []batch.Job) Exec {
	// Clients may shrink the worker pool below the server's cap, never
	// grow it (with Options.Workers unset the cap is GOMAXPROCS, so an
	// oversized request cannot conjure thousands of goroutines — and
	// thousands of permanently pooled workspaces — on a default server).
	workerCap := s.opt.Workers
	if workerCap <= 0 {
		workerCap = runtime.GOMAXPROCS(0)
	}
	workers := workerCap
	if req.Workers > 0 && req.Workers < workerCap {
		workers = req.Workers
	}
	turn := make(chan struct{})
	s.lineMu.Lock()
	ahead := s.last
	s.last = turn
	s.lineMu.Unlock()
	return func(ctx context.Context, run *Run, root *tracing.Active) wire.Summary {
		// Queue for an execution slot once the sweep ahead has had its
		// turn; an expired budget while queued still runs batch.Run,
		// which then reports every job cancelled (so streams and status
		// always resolve). A sweep that leaves the queue early passes its
		// turn on only after the one ahead has had its own, so no later
		// sweep overtakes that one.
		queueStart := time.Now()
		select {
		case <-ahead:
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			case <-ctx.Done():
			}
			close(turn)
		case <-ctx.Done():
			go func() {
				<-ahead
				close(turn)
			}()
		}
		// The clock a summary reports splits here: queued covers the
		// semaphore wait since submission, wall covers execution only, so
		// a sweep queued behind MaxActive neither misleads clients nor
		// poisons the latency histograms under contention.
		queued := time.Since(run.Started)
		run.Trace.Add("queue", root.ID(), -1, queueStart, time.Since(queueStart))
		execSpan := run.Trace.Start("exec", root.ID())
		execStart := time.Now()
		results := batch.Run(ctx, jobs, batch.Options{
			Workers:     workers,
			SettleFrac:  req.SettleFrac,
			Cache:       s.cache,
			Pools:       s.pools,
			Metrics:     s.batchM,
			Trace:       run.Trace,
			TraceParent: execSpan.ID(),
			// The batch layer stamps each Result with the content-address
			// key it computed for its cache lookup, so the hook only
			// converts — no second reflection hash on the worker's
			// critical path. For a shard subset, local slice positions are
			// remapped to the global expansion indices the coordinator
			// merges by.
			OnResult: func(r batch.Result) {
				wr := wire.ResultOf(r)
				if len(req.Indices) > 0 {
					wr.Index = req.Indices[r.Index]
				}
				run.Record(wr)
			},
		})
		wall := time.Since(execStart)
		execSpan.End()
		s.metrics.queueSeconds.Observe(queued.Seconds())
		s.metrics.execSeconds.Observe(wall.Seconds())
		sum := wire.SummaryOf(results, wall)
		sum.QueuedMS = queued.Milliseconds()
		return sum
	}
}

// handleCacheStats reports the shared cache's counters.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, wire.CacheStatsOf(s.cache))
}
