package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/metrics"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// maxRequestBody bounds a sweep request's JSON body. Specs are small
// (names and number lists); a megabyte is orders of magnitude of
// headroom, not a DoS surface.
const maxRequestBody = 1 << 20

// Exec runs one accepted sweep to completion and returns its summary
// line. ctx carries the sweep's budget deadline and its cancellation;
// results go to run.Record and spans under root (nil when untraced).
type Exec func(ctx context.Context, run *Run, root *tracing.Active) wire.Summary

// FrontOptions configures a Front: the service's name and budgets, and
// its executor — the functions through which it runs what it admits.
type FrontOptions struct {
	// Service is the infix of the front's metric names
	// (harvsim_<Service>_sweeps_active, _sweeps_finished_total) and the
	// owner named in budget refusals; IDPrefix starts every sweep id.
	Service, IDPrefix string
	// MaxJobs, MaxRequestTime and KeepFinished are the budgets of
	// Options, with the same defaults.
	MaxJobs        int
	MaxRequestTime time.Duration
	KeepFinished   int
	// Routes are the executor's own endpoints, keyed by ServeMux pattern.
	Routes map[string]http.HandlerFunc
	// Plan readies an expanded sweep and returns the Exec that runs it
	// after the 202, or writes its refusal and returns nil.
	Plan func(w http.ResponseWriter, r *http.Request, req wire.SweepRequest, jobs []batch.Job) Exec
	// Health adds the executor's own fields to the GET /healthz body.
	Health func(h *wire.Health)
}

// Front is the HTTP face of a sweep service. The single-host Server and
// the shard coordinator (internal/shard) are both a Front; they differ
// only in the executor that runs the jobs. The front owns everything a
// client can observe of a sweep's lifecycle, so both services validate,
// budget and report a sweep the same way:
//
//   - POST /v1/sweep: strict decoding, the version and settle_frac
//     checks, the declared-size budget before Compile, the indices order
//     check, expansion, budget_ms as the context deadline, the run
//     registry entry, the trace root with its expand span, and the 202;
//   - when the executor returns: the summary line, the root span, the
//     sealed recorder, the finished count and retention;
//   - job status, stream, trace and cancel, GET /metrics, GET /healthz,
//     and the canonical error envelope on every route.
type Front struct {
	opt      FrontOptions
	runs     *runs
	registry *metrics.Registry
	alerts   *tracing.Alerts
	finished *metrics.Counter
	handler  http.Handler
}

// NewFront builds a front and mounts its routes next to opt.Routes.
func NewFront(opt FrontOptions) *Front {
	if opt.MaxJobs <= 0 {
		opt.MaxJobs = 4096
	}
	if opt.MaxRequestTime <= 0 {
		opt.MaxRequestTime = 120 * time.Second
	}
	f := &Front{
		opt:      opt,
		runs:     newRuns(opt.IDPrefix, opt.KeepFinished),
		registry: metrics.NewRegistry(),
		alerts:   tracing.NewAlerts(),
	}
	f.finished = f.registry.Counter("harvsim_"+opt.Service+"_sweeps_finished_total",
		"Sweeps that ran to completion (cancelled and budget-expired included).")
	f.registry.GaugeFunc("harvsim_"+opt.Service+"_sweeps_active", "Sweeps submitted but not yet finished.",
		func() float64 { return float64(f.runs.Active()) })

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", f.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", f.job(handleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", f.job(serveStream))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", f.job(serveTrace))
	mux.HandleFunc("DELETE /v1/jobs/{id}", f.job(handleCancel))
	mux.Handle("GET /metrics", f.registry.Handler())
	mux.HandleFunc("GET /healthz", f.handleHealth)
	for pattern, h := range opt.Routes {
		mux.HandleFunc(pattern, h)
	}
	f.handler = canonicalErrors(mux)
	return f
}

// Handler returns the service's HTTP handler.
func (f *Front) Handler() http.Handler { return f.handler }

// ServeHTTP lets the service be mounted directly.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.handler.ServeHTTP(w, r) }

// Metrics exposes the service's metric registry — the same one GET
// /metrics collects — so an embedding process can register its own
// instruments alongside the service's.
func (f *Front) Metrics() *metrics.Registry { return f.registry }

// Alerts exposes the service's threshold watcher. Arm rules with the
// service's Watch* helpers (or Alerts().Watch directly), register sinks
// with Alerts().Notify, and start Alerts().Run once at boot.
func (f *Front) Alerts() *tracing.Alerts { return f.alerts }

// handleSweep validates and expands a sweep, hands it to the executor,
// and replies 202 with the job id before any simulation work happens.
func (f *Front) handleSweep(w http.ResponseWriter, r *http.Request) {
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
	// must clear the same bar, for the same reason; a compiled grid has
	// exactly Size jobs, so no second check follows expansion.
	if n := req.Spec.Size(); n > f.opt.MaxJobs {
		WriteError(w, http.StatusRequestEntityTooLarge, wire.CodeTooManyJobs, false,
			"sweep would expand to %d jobs, %s budget is %d", n, f.opt.Service, f.opt.MaxJobs)
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
	expandDur := time.Since(expandStart)
	exec := f.opt.Plan(w, r, req, jobs)
	if exec == nil {
		return
	}

	// Budgets: the client may shrink, never grow, the service's ceiling,
	// and the deadline bounds the whole sweep (a coordinator's re-shards
	// included). Compare in the millisecond domain first so an absurd
	// BudgetMS cannot overflow the Duration multiplication into an
	// already-expired deadline — it just means "service maximum".
	budget := f.opt.MaxRequestTime
	if req.BudgetMS > 0 && req.BudgetMS < budget.Milliseconds() {
		budget = time.Duration(req.BudgetMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	run := f.runs.New(len(jobs), cancel)

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
	go f.run(ctx, run, root, exec)

	WriteJSON(w, http.StatusAccepted, wire.SweepAccepted{
		V:         wire.Version,
		ID:        run.ID,
		Jobs:      len(jobs),
		StatusURL: "/v1/jobs/" + run.ID,
		StreamURL: "/v1/jobs/" + run.ID + "/stream",
	})
}

// run executes an accepted sweep and finalises its state.
func (f *Front) run(ctx context.Context, run *Run, root *tracing.Active, exec Exec) {
	defer run.Cancel()
	run.Finish(exec(ctx, run, root))
	root.End()
	run.Trace.Finish()
	f.finished.Inc()
	f.runs.Retire(run.ID)
}

// job adapts a per-run handler to the {id} routes: unknown (or
// evicted) ids are 404s.
func (f *Front) job(h func(http.ResponseWriter, *http.Request, *Run)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		run := f.runs.Lookup(id)
		if run == nil {
			WriteError(w, http.StatusNotFound, wire.CodeNotFound, false, "unknown job %q", id)
			return
		}
		h(w, r, run)
	}
}

// handleStatus reports a sweep's status; ?results=1 includes the full
// result list once done.
func handleStatus(w http.ResponseWriter, r *http.Request, run *Run) {
	WriteJSON(w, http.StatusOK, run.Status(r.URL.Query().Get("results") == "1"))
}

// handleCancel cancels a running sweep's context. Running jobs finish
// (engines are non-preemptible) and a coordinator's shard streams
// abort; unstarted jobs report cancellation. A finished run reports
// "done" instead of pretending to cancel — client and coordinator retry
// logic must not misread a completed sweep as still winding down.
func handleCancel(w http.ResponseWriter, r *http.Request, run *Run) {
	status := "cancelling"
	if run.Done() {
		status = "done"
	} else {
		run.Cancel()
	}
	WriteJSON(w, http.StatusOK, map[string]any{"v": wire.Version, "id": run.ID, "status": status})
}

// handleHealth is the liveness probe.
func (f *Front) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := wire.Health{V: wire.Version, Status: "ok", ActiveSweeps: f.runs.Active()}
	f.opt.Health(&h)
	WriteJSON(w, http.StatusOK, h)
}
