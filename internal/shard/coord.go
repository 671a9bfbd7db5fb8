package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/server"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// Options configures a Coordinator.
type Options struct {
	// Workers is the fleet: base URLs of running sweep servers
	// (e.g. "http://10.0.0.1:8080"). At least one is required.
	Workers []string
	// MaxJobs rejects sweeps expanding beyond this many jobs (413).
	// 0 = 4096. The coordinator expands the full grid to place jobs, so
	// this is its own memory bound, independent of the workers'.
	MaxJobs int
	// MaxRequestTime is the wall-clock ceiling per coordinated sweep,
	// re-shards included; clients may ask for less via budget_ms, never
	// more. 0 = 120s.
	MaxRequestTime time.Duration
	// KeepFinished bounds how many finished untraced sweeps stay
	// queryable, as server.Options does. 0 = 128.
	KeepFinished int
	// HealthTimeout bounds one worker health probe. 0 = 2s.
	HealthTimeout time.Duration
	// MaxRetries bounds per-shard stream resumes (?from cursor) against
	// a worker that still answers its health probe, before the worker is
	// declared lost. 0 = 2.
	MaxRetries int
	// Client performs all worker HTTP calls; nil uses a dedicated
	// keep-alive client. Streams are long-lived, so the client must not
	// carry an overall timeout (per-call deadlines come from contexts).
	Client *http.Client
}

// maxIdleConnsPerWorker sizes the keep-alive pool per worker host. A
// coordinator multiplexes every shard submit, stream and health probe
// over one client, so it must hold at least as many idle connections
// per worker as it has concurrent shard streams — Go's default of 2
// would close and re-dial on every retry/resume wave.
const maxIdleConnsPerWorker = 64

// Coordinator is the sweep server's Front with a fan-out executor in
// place of a local batch.Run: it places each sweep's jobs on the live
// fleet and merges the shard streams into one globally indexed NDJSON
// stream with a single summary line. A client cannot tell it from a
// worker except by the fleet fields its summaries carry and its own
// routes, GET /v1/workers and POST /v1/workers/drain. Create with New.
type Coordinator struct {
	*server.Front
	opt     Options
	client  *http.Client
	metrics *coordMetrics

	// mu guards the drain set. Draining is coordinator-local lifecycle
	// state, not a probe outcome: a draining worker is excluded from new
	// shard placement (re-shards included) while its in-flight streams
	// run to completion.
	mu       sync.Mutex
	draining map[string]bool
}

// New builds a coordinator over the configured fleet.
func New(opt Options) *Coordinator {
	if opt.HealthTimeout <= 0 {
		opt.HealthTimeout = 2 * time.Second
	}
	if opt.MaxRetries <= 0 {
		opt.MaxRetries = 2
	}
	c := &Coordinator{
		opt:      opt,
		client:   opt.Client,
		draining: make(map[string]bool),
	}
	if c.client == nil {
		// The promised dedicated keep-alive client: without the tuned
		// transport, net/http keeps only 2 idle connections per host, so
		// a many-shard fleet against few workers would churn TCP
		// connections on every retry/resume and health-probe wave.
		c.client = &http.Client{Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			MaxIdleConnsPerHost: maxIdleConnsPerWorker,
			MaxIdleConns:        0, // no global cap; the per-host bound governs
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	c.Front = server.NewFront(server.FrontOptions{
		Service:        "coord",
		IDPrefix:       "co-",
		MaxJobs:        opt.MaxJobs,
		MaxRequestTime: opt.MaxRequestTime,
		KeepFinished:   opt.KeepFinished,
		Routes: map[string]http.HandlerFunc{
			"GET /v1/workers":        c.handleWorkers,
			"POST /v1/workers/drain": c.handleDrain,
		},
		Plan:   c.plan,
		Health: func(h *wire.Health) { h.Workers = len(c.opt.Workers) },
	})
	c.metrics = newCoordMetrics(c.Metrics(), c)
	return c
}

// WatchLostWorkers arms an alert on the cumulative lost-worker counter
// (harvsim_coord_lost_workers_total) reaching bound.
func (c *Coordinator) WatchLostWorkers(bound float64) {
	c.Alerts().Watch("lost_workers", bound, func() float64 { return float64(c.metrics.lostWorkers.Value()) })
}

// WatchShardP99 arms one alert per configured worker on the p99 of its
// shard submit-to-summary wall time reaching bound seconds.
func (c *Coordinator) WatchShardP99(bound float64) {
	for _, w := range c.opt.Workers {
		h := c.metrics.shardSeconds.With(w)
		c.Alerts().Watch("shard_p99_seconds:"+w, bound, func() float64 { return h.Quantile(0.99) })
	}
}

// isDraining reports whether a worker is marked draining. URLs are
// compared with trailing slashes trimmed, matching handleDrain's
// normalisation.
func (c *Coordinator) isDraining(worker string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining[strings.TrimRight(worker, "/")]
}

// healthy probes one worker's liveness endpoint.
func (c *Coordinator) healthy(ctx context.Context, worker string) error {
	ctx, cancel := context.WithTimeout(ctx, c.opt.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// probeFleet health-checks every configured worker concurrently.
func (c *Coordinator) probeFleet(ctx context.Context) []wire.WorkerStatus {
	out := make([]wire.WorkerStatus, len(c.opt.Workers))
	var wg sync.WaitGroup
	for i, w := range c.opt.Workers {
		i, w := i, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = wire.WorkerStatus{URL: w, Healthy: true}
			if err := c.healthy(ctx, w); err != nil {
				out[i] = wire.WorkerStatus{URL: w, Error: err.Error()}
			}
		}()
	}
	wg.Wait()
	return out
}

// plan is the fan-out executor. It refuses the worker-protocol indices
// field (a coordinator places whole sweeps itself), health-checks the
// fleet before the sweep is accepted — a sweep with nowhere to run is a
// 503 now, not a stream of failures later — and computes each job's
// placement key. Draining workers are excluded up front: they may be
// healthy, but they take no new shards.
func (c *Coordinator) plan(w http.ResponseWriter, r *http.Request, req wire.SweepRequest, jobs []batch.Job) server.Exec {
	if len(req.Indices) > 0 {
		server.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false,
			"indices are a worker-protocol field; submit whole sweeps to a coordinator")
		return nil
	}
	var alive []string
	for _, ws := range c.probeFleet(r.Context()) {
		if ws.Healthy && !c.isDraining(ws.URL) {
			alive = append(alive, ws.URL)
		}
	}
	if len(alive) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, wire.CodeNoWorkers, true,
			"none of the %d configured workers is live (healthy and not draining)", len(c.opt.Workers))
		return nil
	}
	// Placement keys: content-address where the job has one (so a design
	// point lands where its disk cache lives), index fallback otherwise.
	keys := batch.Keys(jobs, batch.Options{SettleFrac: req.SettleFrac})
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Name
	}
	// With tracing on, the coordinator's recorder is the sweep's merge
	// point: every shard's worker-side spans are imported into it, so
	// one connected trace spans the whole fleet.
	return func(ctx context.Context, run *server.Run, root *tracing.Active) wire.Summary {
		return c.dispatch(ctx, run, req, keys, names, alive, root)
	}
}

// sweepState is the shared bookkeeping of one coordinated sweep's
// dispatch: which global indices have been delivered (the exactly-once
// guard), the live ring, and the fleet counters the summary reports.
// The delivered lines themselves live in the run's log.
type sweepState struct {
	run   *server.Run
	req   wire.SweepRequest
	keys  []string
	names []string
	m     *coordMetrics
	// rootID is the sweep root span's id — the parent every shard span
	// links to ("" when the sweep is untraced).
	rootID string

	wg sync.WaitGroup

	mu        sync.Mutex
	ring      *Ring
	delivered map[int]bool
	lost      map[string]bool
	resharded int
	retries   int
}

// record delivers one global-index line exactly once; duplicates (a
// resumed stream replaying a line that raced the cursor) are dropped.
func (st *sweepState) record(r wire.Result) {
	st.mu.Lock()
	if st.delivered[r.Index] {
		st.mu.Unlock()
		return
	}
	st.delivered[r.Index] = true
	st.mu.Unlock()
	st.m.results.Inc()
	st.run.Record(r)
}

// undelivered filters a shard's indices down to those not yet recorded.
func (st *sweepState) undelivered(indices []int) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []int
	for _, ix := range indices {
		if !st.delivered[ix] {
			out = append(out, ix)
		}
	}
	return out
}

// fail records a synthetic failed result for every given index — the
// terminal accounting when no worker can run them (so the merged stream
// still resolves with every job accounted for, like a cancelled local
// sweep does).
func (st *sweepState) fail(indices []int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	for _, ix := range indices {
		st.record(wire.Result{Type: wire.LineResult, Index: ix, Name: st.names[ix], Error: msg})
	}
}

// dispatch fans the sweep out over the fleet and returns the merged
// summary. It returns only when every global index has been recorded
// (delivered by a worker, or failed terminally); ctx carries the
// sweep's budget, so an expired budget ends every shard stream and
// fails the undelivered remainder.
func (c *Coordinator) dispatch(ctx context.Context, run *server.Run, req wire.SweepRequest, keys, names []string, alive []string, root *tracing.Active) wire.Summary {
	st := &sweepState{
		run:       run,
		req:       req,
		keys:      keys,
		names:     names,
		m:         c.metrics,
		rootID:    root.ID(),
		ring:      NewRing(alive),
		delivered: make(map[int]bool, len(keys)),
		lost:      make(map[string]bool),
	}
	for worker, indices := range st.ring.Assign(keys) {
		st.wg.Add(1)
		go c.runShard(ctx, st, worker, indices)
	}
	st.wg.Wait()

	// Anything still undelivered (cancellation, total fleet loss) gets
	// terminal accounting before the summary.
	all := make([]int, len(keys))
	for i := range all {
		all[i] = i
	}
	if missing := st.undelivered(all); len(missing) != 0 {
		reason := "sweep aborted before the job ran"
		if err := ctx.Err(); err != nil {
			reason = err.Error()
		}
		st.fail(missing, "%s", reason)
	}

	// Merged summary: reconstruct the batch view of every line the run
	// recorded, order by global index, and reduce through the same
	// SummaryOf a single host uses. Floats round-tripped bit-exactly, so
	// max_metric/argmax agree bit for bit with a single-host run of the
	// same grid. The log is shared with the run's streams, so the lines
	// are sorted in a copy.
	lines := append([]wire.Result(nil), run.Results()...)
	st.mu.Lock()
	resharded, retries, lost := st.resharded, st.retries, len(st.lost)
	st.mu.Unlock()
	sort.Slice(lines, func(i, j int) bool { return lines[i].Index < lines[j].Index })
	results := make([]batch.Result, len(lines))
	for i, ln := range lines {
		results[i] = wire.BatchResultOf(ln)
	}
	summary := wire.SummaryOf(results, time.Since(run.Started))
	summary.Workers = len(alive)
	summary.Resharded = resharded
	summary.Retries = retries
	summary.LostWorkers = lost
	return summary
}

// streamShard consumes one worker job's NDJSON stream from *received
// onward, recording result lines (exactly-once via sweepState). It
// bumps *received per result line so a retry resumes with ?from exactly
// past what this coordinator has already read. nil return means the
// summary line arrived — the shard is complete.
func (c *Coordinator) streamShard(ctx context.Context, st *sweepState, worker string, acc wire.SweepAccepted, received *int) error {
	url := fmt.Sprintf("%s%s?from=%d", worker, acc.StreamURL, *received)
	_, err := wire.ReadStream(ctx, c.client, url, func(r wire.Result) {
		*received++
		st.record(r)
	})
	return err
}

// runShard drives one worker's shard to completion: submit, stream,
// resume on transient drops, and on worker loss re-shard the
// undelivered indices onto the survivors. wg accounting: the goroutine
// holds its own count while spawning replacements, so Wait cannot fire
// between hand-offs.
func (c *Coordinator) runShard(ctx context.Context, st *sweepState, worker string, indices []int) {
	defer st.wg.Done()
	start := time.Now()
	// The shard span propagates the trace to the worker: the worker's
	// own root span links back to it via the request's span field, so
	// importing the worker's trace below yields one connected tree. A
	// re-shard (loseWorker) opens its own shard span on the survivor.
	rec := st.run.Trace
	shardSpan := rec.Start("shard", st.rootID)
	shardSpan.SetWorker(worker)
	defer shardSpan.End()
	req := wire.SweepRequest{
		Spec:       st.req.Spec,
		Indices:    indices,
		Workers:    st.req.Workers,
		SettleFrac: st.req.SettleFrac,
		BudgetMS:   st.req.BudgetMS,
		Trace:      rec.Trace(),
		Span:       shardSpan.ID(),
	}
	acc, err := wire.Submit(ctx, c.client, worker, req)
	var refused *wire.ErrorDetail
	if errors.As(err, &refused) && !refused.Retryable {
		// The request itself was refused (bad spec, over budget): every
		// worker would refuse it the same way, so re-sharding only loops.
		st.fail(indices, "worker %s refused shard: %v", worker, refused)
		return
	}
	if err != nil {
		// A retryable envelope, any other status or a transport error:
		// the worker is lost and its jobs move to the survivors.
		c.loseWorker(ctx, st, worker, indices, err)
		return
	}
	received := 0
	for attempt := 0; ; attempt++ {
		err := c.streamShard(ctx, st, worker, acc, &received)
		if err == nil {
			c.metrics.shardSeconds.With(worker).Observe(time.Since(start).Seconds())
			if rec != nil {
				// The worker seals its recorder right after its summary
				// line, so this replay ends promptly. A failed import is
				// dropped: it must never fail the shard it observed.
				_ = wire.ReadTrace(ctx, c.client, worker, acc.ID, rec.Import)
			}
			return
		}
		if ctx.Err() != nil {
			return // cancelled/expired; dispatch accounts the remainder
		}
		// Transient drop vs dead worker: if the worker still answers its
		// health probe, resume the same job's stream past what we have.
		if attempt < c.opt.MaxRetries && c.healthy(ctx, worker) == nil {
			st.mu.Lock()
			st.retries++
			st.mu.Unlock()
			c.metrics.retries.Inc()
			continue
		}
		c.loseWorker(ctx, st, worker, indices, err)
		return
	}
}

// loseWorker declares a worker dead: removes it from the ring and
// re-shards its undelivered indices over the survivors (each key moving
// to its rendezvous second choice). Survivors marked draining since the
// sweep started are excluded — a re-shard is new placement, and drain
// means no new shards. With no eligible survivors the remainder fails
// terminally.
func (c *Coordinator) loseWorker(ctx context.Context, st *sweepState, worker string, indices []int, cause error) {
	st.mu.Lock()
	if !st.lost[worker] {
		st.lost[worker] = true
		st.ring.Remove(worker)
		c.metrics.lostWorkers.Inc()
	}
	var survivors []string
	for _, w := range st.ring.Workers() {
		if !c.isDraining(w) {
			survivors = append(survivors, w)
		}
	}
	ring := NewRing(survivors)
	st.mu.Unlock()

	missing := st.undelivered(indices)
	if len(missing) == 0 {
		return
	}
	if ring.Len() == 0 {
		st.fail(missing, "worker %s lost (%v) and no live survivors remain", worker, cause)
		return
	}
	st.mu.Lock()
	st.resharded += len(missing)
	st.mu.Unlock()
	c.metrics.resharded.Add(int64(len(missing)))

	assign := make(map[string][]int, ring.Len())
	for _, ix := range missing {
		w := ring.Owner(JobKey(ix, st.keys[ix]))
		assign[w] = append(assign[w], ix)
	}
	for w, ixs := range assign {
		st.wg.Add(1)
		go c.runShard(ctx, st, w, ixs)
	}
}

// handleWorkers reports a live health probe of the configured fleet,
// annotated with each worker's placement state: live, draining or lost.
func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	workers := c.probeFleet(r.Context())
	for i := range workers {
		switch {
		case c.isDraining(workers[i].URL):
			workers[i].State = wire.WorkerDraining
		case workers[i].Healthy:
			workers[i].State = wire.WorkerLive
		default:
			workers[i].State = wire.WorkerLost
		}
	}
	server.WriteJSON(w, http.StatusOK, wire.FleetStatus{V: wire.Version, Workers: workers})
}

// handleDrain marks a configured worker draining for planned
// maintenance: it takes no new shards (fresh sweeps and mid-sweep
// re-shards alike) while its in-flight shard streams run to completion —
// so draining mid-sweep never loses or recomputes work, unlike killing
// the worker. The flag is coordinator-local and sticky until restart.
func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	worker := strings.TrimRight(r.URL.Query().Get("worker"), "/")
	if worker == "" {
		server.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false,
			"drain requires a ?worker=<url> parameter")
		return
	}
	known := false
	for _, u := range c.opt.Workers {
		if strings.TrimRight(u, "/") == worker {
			known = true
			break
		}
	}
	if !known {
		server.WriteError(w, http.StatusNotFound, wire.CodeNotFound, false,
			"worker %q is not in the configured fleet", worker)
		return
	}
	c.mu.Lock()
	c.draining[worker] = true
	c.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, wire.DrainStatus{V: wire.Version, Worker: worker, State: wire.WorkerDraining})
}
