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
// Endpoints:
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
//	GET    /healthz             liveness
//
// Every non-2xx response carries the canonical JSON error envelope
// {"error":{"code","message","retryable"}} (see wire.Error), including
// mux-generated 404/405s — the CanonicalErrors middleware guarantees it.
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
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/metrics"
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
	// KeepFinished bounds how many finished sweeps stay queryable;
	// oldest are dropped first. 0 = 128.
	KeepFinished int
}

func (o Options) maxActive() int {
	if o.MaxActive > 0 {
		return o.MaxActive
	}
	return 2
}

func (o Options) maxJobs() int {
	if o.MaxJobs > 0 {
		return o.MaxJobs
	}
	return 4096
}

func (o Options) maxRequestTime() time.Duration {
	if o.MaxRequestTime > 0 {
		return o.MaxRequestTime
	}
	return 120 * time.Second
}

// maxRequestBody bounds a sweep request's JSON body. Specs are small
// (names and number lists); a megabyte is orders of magnitude of
// headroom, not a DoS surface.
const maxRequestBody = 1 << 20

// Server is the sweep service. Create with New, mount via Handler.
type Server struct {
	opt      Options
	cache    *batch.Cache
	pools    *batch.PoolCache
	sem      chan struct{}
	runs     *Runs
	handler  http.Handler
	registry *metrics.Registry
	metrics  *serverMetrics
	batchM   *batch.Metrics
	alerts   *tracing.Alerts
}

// New builds a server. The cache (Options.Cache or a fresh in-memory
// one) and the workspace pools live as long as the server: every
// request shares them.
func New(opt Options) *Server {
	s := &Server{
		opt:   opt,
		cache: opt.Cache,
		pools: batch.NewPoolCache(),
		sem:   make(chan struct{}, opt.maxActive()),
		runs:  NewRuns("sw-", opt.KeepFinished),
	}
	if s.cache == nil {
		s.cache = batch.NewCache(0)
	}
	s.registry = metrics.NewRegistry()
	s.batchM = batch.NewMetrics(s.registry)
	s.metrics = newServerMetrics(s.registry, s.runs, s.cache)
	s.alerts = tracing.NewAlerts()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	mux.Handle("GET /metrics", s.registry.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.handler = CanonicalErrors(mux)
	return s
}

// Metrics exposes the server's metric registry — the same one GET
// /metrics collects — so an embedding process can register its own
// instruments alongside the service's.
func (s *Server) Metrics() *metrics.Registry { return s.registry }

// Cache exposes the shared result cache (for priming or inspection by
// an embedding process).
func (s *Server) Cache() *batch.Cache { return s.cache }

// Alerts exposes the server's threshold watcher. Arm rules with the
// Watch* helpers (or Alerts().Watch directly), register sinks with
// Alerts().Notify, and start Alerts().Run once at boot.
func (s *Server) Alerts() *tracing.Alerts { return s.alerts }

// WatchFailed arms an alert on the cumulative failed-jobs counter
// (harvsim_batch_failed_total) reaching bound.
func (s *Server) WatchFailed(bound float64) {
	s.alerts.Watch("failed_total", bound, func() float64 { return float64(s.batchM.Failed.Value()) })
}

// WatchExecP99 arms an alert on the p99 of sweep execution wall time
// (harvsim_server_sweep_exec_seconds) reaching bound seconds.
func (s *Server) WatchExecP99(bound float64) {
	s.alerts.Watch("exec_p99_seconds", bound, func() float64 { return s.metrics.execSeconds.Quantile(0.99) })
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// ServeHTTP lets the Server be mounted directly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// handleSweep validates, compiles and launches a sweep, replying 202
// with the job id before any simulation work happens.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req wire.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "bad request body: %v", err)
		return
	}
	if err := req.Spec.CheckVersion(); err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeUnsupportedVersion, false, "%v", err)
		return
	}
	// Scalar-field validation comes before any expansion work: a bad
	// settle_frac must cost a comparison, not a Compile plus one Config
	// clone per grid point.
	if req.SettleFrac < 0 || req.SettleFrac >= 1 {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false,
			"settle_frac must be in [0, 1), got %g", req.SettleFrac)
		return
	}
	// Budget-check the declared size BEFORE compiling: Compile
	// materialises seed lists and Jobs clones a Config per job, so a
	// few hundred bytes of hostile axis product must be rejected while
	// it is still arithmetic (Size saturates instead of overflowing).
	// A sharded request only runs its indices, but its declared grid
	// must clear the same bar, for the same reason.
	if n := req.Spec.Size(); n > s.opt.maxJobs() {
		WriteError(w, http.StatusRequestEntityTooLarge, wire.CodeTooManyJobs, false,
			"sweep would expand to %d jobs, server budget is %d", n, s.opt.maxJobs())
		return
	}
	for i, ix := range req.Indices {
		if i > 0 && ix <= req.Indices[i-1] {
			WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false,
				"indices must be strictly increasing: indices[%d]=%d after %d", i, ix, req.Indices[i-1])
			return
		}
	}
	expandStart := time.Now()
	bspec, err := req.Spec.Compile()
	if err != nil {
		code := wire.CodeBadRequest
		if errors.Is(err, wire.ErrUnsupportedVersion) {
			code = wire.CodeUnsupportedVersion
		}
		WriteError(w, http.StatusBadRequest, code, false, "%v", err)
		return
	}
	var jobs []batch.Job
	if len(req.Indices) > 0 {
		jobs, err = bspec.JobsAt(req.Indices)
	} else {
		jobs, err = bspec.Jobs()
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "%v", err)
		return
	}
	if len(jobs) > s.opt.maxJobs() {
		WriteError(w, http.StatusRequestEntityTooLarge, wire.CodeTooManyJobs, false,
			"sweep expands to %d jobs, server budget is %d", len(jobs), s.opt.maxJobs())
		return
	}
	expandDur := time.Since(expandStart)

	// Budgets: the client may shrink, never grow, the server's ceiling.
	// Compare in the millisecond domain first so an absurd BudgetMS
	// cannot overflow the Duration multiplication into an
	// already-expired deadline — it just means "server maximum".
	budget := s.opt.maxRequestTime()
	if req.BudgetMS > 0 && req.BudgetMS < budget.Milliseconds() {
		budget = time.Duration(req.BudgetMS) * time.Millisecond
	}
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

	ctx, cancel := context.WithTimeout(context.Background(), budget)
	run := s.runs.New(len(jobs), cancel)

	// Tracing is opt-in per request: a non-empty trace id builds the
	// sweep's flight recorder. The root span links to the caller's span
	// (a coordinator's shard span), so fleet traces stay connected; the
	// expansion above was timed unconditionally (two clock reads on a
	// cold path) so it can be reported here without re-compiling.
	var root *tracing.Active
	if req.Trace != "" {
		rec := tracing.New(req.Trace, 0)
		root = rec.Start("sweep", req.Span)
		rec.Add("expand", root.ID(), -1, expandStart, expandDur)
		run.Trace = rec
	}

	opt := batch.Options{
		Workers:    workers,
		SettleFrac: req.SettleFrac,
		Cache:      s.cache,
		Pools:      s.pools,
		Metrics:    s.batchM,
		Trace:      run.Trace,
	}
	// The batch layer stamps each Result with the content-address key it
	// computed for its cache lookup, so the hook only converts — no
	// second reflection hash on the worker's critical path. For a shard
	// subset, local slice positions are remapped to the global expansion
	// indices the coordinator merges by.
	indices := req.Indices
	opt.OnResult = func(r batch.Result) {
		wr := wire.ResultOf(r)
		if len(indices) > 0 {
			wr.Index = indices[r.Index]
		}
		run.Record(wr)
	}
	go s.run(ctx, run, jobs, opt, root)

	WriteJSON(w, http.StatusAccepted, wire.SweepAccepted{
		V:         wire.Version,
		ID:        run.ID,
		Jobs:      len(jobs),
		StatusURL: "/v1/jobs/" + run.ID,
		StreamURL: "/v1/jobs/" + run.ID + "/stream",
	})
}

// run executes a submitted sweep under the concurrency semaphore and
// finalises its state. root is the sweep's open trace span (nil when
// tracing is off); its queue/exec children split the same clock the
// summary's QueuedMS/WallMS report.
func (s *Server) run(ctx context.Context, run *Run, jobs []batch.Job, opt batch.Options, root *tracing.Active) {
	defer run.Cancel()
	// Queue for an execution slot; an expired budget while queued still
	// runs batch.Run, which then reports every job cancelled (so streams
	// and status always resolve).
	queueStart := time.Now()
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
	}
	// The clock a summary reports splits here: queued covers the
	// semaphore wait since submission, wall covers execution only. A
	// sweep queued behind MaxActive used to fold its wait into WallMS,
	// which both misled clients and would poison the latency histograms
	// under contention.
	queued := time.Since(run.Started)
	run.Trace.Add("queue", root.ID(), -1, queueStart, time.Since(queueStart))
	execSpan := run.Trace.Start("exec", root.ID())
	opt.TraceParent = execSpan.ID()
	execStart := time.Now()
	results := batch.Run(ctx, jobs, opt)
	wall := time.Since(execStart)
	execSpan.End()
	sum := wire.SummaryOf(results, wall)
	sum.QueuedMS = queued.Milliseconds()
	run.Finish(sum)
	root.End()
	run.Trace.Finish()
	s.metrics.finished.Inc()
	s.metrics.queueSeconds.Observe(queued.Seconds())
	s.metrics.execSeconds.Observe(wall.Seconds())
	s.runs.Retire(run.ID)
}

// lookup resolves a job id.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Run {
	id := r.PathValue("id")
	run := s.runs.Lookup(id)
	if run == nil {
		WriteError(w, http.StatusNotFound, wire.CodeNotFound, false, "unknown job %q", id)
	}
	return run
}

// handleJob reports a sweep's status; ?results=1 includes the full
// result list once done.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	WriteJSON(w, http.StatusOK, run.Status(r.URL.Query().Get("results") == "1"))
}

// handleStream streams a run as NDJSON (see ServeStream).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	ServeStream(w, r, run)
}

// handleCancel cancels a running sweep's context. Running jobs finish
// (engines are non-preemptible); unstarted jobs report cancellation. A
// finished run reports "done" instead of pretending to cancel — client
// and coordinator retry logic must not misread a completed sweep as
// still winding down.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	status := "cancelling"
	if run.Done() {
		status = "done"
	} else {
		run.Cancel()
	}
	WriteJSON(w, http.StatusOK, map[string]any{"v": wire.Version, "id": run.ID, "status": status})
}

// handleTrace replays a sweep's flight recorder as NDJSON span lines
// (see ServeTrace). A sweep submitted without a trace id has no
// recorder and reports 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	if run.Trace == nil {
		WriteError(w, http.StatusNotFound, wire.CodeNotFound, false,
			"job %q was not traced (submit with a \"trace\" id)", run.ID)
		return
	}
	ServeTrace(w, r, run.Trace)
}

// handleCacheStats reports the shared cache's counters.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, wire.CacheStatsOf(s.cache))
}

// handleHealth is the liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, wire.Health{
		V:            wire.Version,
		Status:       "ok",
		ActiveSweeps: s.runs.Active(),
		CacheEntries: s.cache.Stats().Entries,
	})
}
