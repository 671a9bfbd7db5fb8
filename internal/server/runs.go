package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// Run is one submitted sweep's lifecycle state: the front owns it and
// an executor (local pool or shard fan-out) records into it. results
// accumulates in completion order (the stream order); done flips
// exactly once, after the last result is recorded. cond (over mu)
// wakes streamers on every append and on completion.
type Run struct {
	ID      string
	Total   int
	Started time.Time
	Cancel  context.CancelFunc
	// Trace is the sweep's flight recorder, non-nil only when the request
	// asked for tracing; set before the 202 is written and never after,
	// so handlers read it without the run lock.
	Trace *tracing.Recorder

	mu      sync.Mutex
	cond    *sync.Cond
	results []wire.Result
	failed  int
	hits    int
	shared  int
	done    bool
	summary wire.Summary
}

// Record appends one completed job's wire result (called concurrently
// from every worker / every shard stream).
func (run *Run) Record(r wire.Result) {
	run.mu.Lock()
	run.results = append(run.results, r)
	if r.Error != "" {
		run.failed++
	}
	if r.Cached {
		run.hits++
	}
	if r.Shared {
		run.shared++
	}
	run.mu.Unlock()
	run.cond.Broadcast()
}

// Finish marks the run complete with its summary line.
func (run *Run) Finish(summary wire.Summary) {
	run.mu.Lock()
	run.summary = summary
	run.done = true
	run.mu.Unlock()
	run.cond.Broadcast()
}

// Done reports completion.
func (run *Run) Done() bool {
	run.mu.Lock()
	defer run.mu.Unlock()
	return run.done
}

// Status snapshots the run as a wire.JobStatus; withResults includes the
// completion-ordered result list when done.
func (run *Run) Status(withResults bool) wire.JobStatus {
	run.mu.Lock()
	defer run.mu.Unlock()
	st := wire.JobStatus{
		V:         wire.Version,
		ID:        run.ID,
		State:     wire.StateRunning,
		Jobs:      run.Total,
		Completed: len(run.results),
		Failed:    run.failed,
		CacheHits: run.hits,
		Shared:    run.shared,
		ElapsedMS: time.Since(run.Started).Milliseconds(),
	}
	if run.done {
		st.State = wire.StateDone
		// End-to-end elapsed: queue wait plus execution wall (they are
		// reported separately in the summary).
		st.ElapsedMS = run.summary.QueuedMS + run.summary.WallMS
		sum := run.summary
		st.Summary = &sum
		if withResults {
			st.Results = append([]wire.Result(nil), run.results...)
		}
	}
	return st
}

// traceBudget bounds the spans that finished traced runs keep
// queryable: one full flight recorder's worth. A traced client fetches
// its spans after the fact, so traced runs are not retired by the count
// bound, which a busy traced window outruns.
const traceBudget = tracing.DefaultCapacity

// runs is an id-keyed registry of sweep runs with bounded retention of
// finished ones: a count bound for untraced runs and a span budget for
// traced ones, each evicting oldest first.
type runs struct {
	prefix string
	keep   int

	mu   sync.Mutex
	seq  int64
	jobs map[string]*Run
	// finished untraced ids in completion order, for count eviction.
	doneOrder []string
	// finished traced runs in completion order, and the spans they hold.
	traced []tracedRun
	spans  int
}

// tracedRun is a finished traced run and the spans its sealed recorder
// holds.
type tracedRun struct {
	id    string
	spans int
}

// newRuns builds a registry. Ids are prefix + sequence number;
// keepFinished bounds how many finished untraced runs stay queryable
// (oldest dropped first), 0 means the default of 128. Finished traced
// runs stay while the spans they hold fit traceBudget; the newest one
// always stays.
func newRuns(prefix string, keepFinished int) *runs {
	if keepFinished <= 0 {
		keepFinished = 128
	}
	return &runs{prefix: prefix, keep: keepFinished, jobs: make(map[string]*Run)}
}

// New registers a fresh run in the "running" state.
func (rs *runs) New(total int, cancel context.CancelFunc) *Run {
	rs.mu.Lock()
	rs.seq++
	id := rs.prefix + strconv.FormatInt(rs.seq, 10)
	run := &Run{ID: id, Total: total, Started: time.Now(), Cancel: cancel}
	run.cond = sync.NewCond(&run.mu)
	rs.jobs[run.ID] = run
	rs.mu.Unlock()
	return run
}

// Lookup resolves an id; nil when unknown (or evicted).
func (rs *runs) Lookup(id string) *Run {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.jobs[id]
}

// Retire records a finished run, whose recorder (if any) is sealed, and
// evicts the oldest finished runs beyond the retention bound of its
// kind.
func (rs *runs) Retire(id string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rec := rs.jobs[id].Trace; rec != nil {
		n := rec.Retained()
		rs.traced = append(rs.traced, tracedRun{id, n})
		rs.spans += n
		for len(rs.traced) > 1 && rs.spans > traceBudget {
			delete(rs.jobs, rs.traced[0].id)
			rs.spans -= rs.traced[0].spans
			rs.traced = rs.traced[1:]
		}
		return
	}
	rs.doneOrder = append(rs.doneOrder, id)
	for len(rs.doneOrder) > rs.keep {
		delete(rs.jobs, rs.doneOrder[0])
		rs.doneOrder = rs.doneOrder[1:]
	}
}

// Active counts unfinished runs.
func (rs *runs) Active() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for _, run := range rs.jobs {
		if !run.Done() {
			n++
		}
	}
	return n
}

// serveStream writes a run as NDJSON: every result line as it completes,
// then the summary line. Late subscribers get a full replay; a
// ?from=<n> cursor skips the first n lines of the completion-ordered
// replay instead, which is how a client (or the shard coordinator's
// retry path) resumes a stream that died after n lines without paying
// for — or double-counting — what it already has. Large grids render
// progressively because each line is flushed as written.
func serveStream(w http.ResponseWriter, r *http.Request, run *Run) {
	next := 0
	if from := r.URL.Query().Get("from"); from != "" {
		n, err := strconv.Atoi(from)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false,
				"from must be a non-negative integer, got %q", from)
			return
		}
		next = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A disconnecting client must unblock the cond wait below. The
	// monitor takes run.mu before broadcasting so the wake-up cannot slip
	// into the gap between the loop's ctx.Err() check and its
	// cond.Wait registration (a lost wake-up would strand the handler
	// until the sweep's next result).
	ctx := r.Context()
	go func() {
		<-ctx.Done()
		run.mu.Lock()
		//lint:ignore SA2001 empty critical section on purpose: it
		// serialises with the check-then-Wait window before waking.
		run.mu.Unlock()
		run.cond.Broadcast()
	}()

	for {
		run.mu.Lock()
		for next >= len(run.results) && !run.done && ctx.Err() == nil {
			run.cond.Wait()
		}
		var chunk []wire.Result
		if next < len(run.results) {
			chunk = run.results[next:len(run.results):len(run.results)]
		}
		next += len(chunk)
		done := run.done && next >= len(run.results)
		summary := run.summary
		run.mu.Unlock()

		if ctx.Err() != nil {
			return
		}
		for _, line := range chunk {
			if enc.Encode(line) != nil {
				return // client went away
			}
		}
		if done {
			enc.Encode(summary)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if flusher != nil && len(chunk) > 0 {
			flusher.Flush()
		}
	}
}

// serveTrace replays a sweep's flight recorder as NDJSON — one
// wire.SpanLine per finished span, with the same ?from=<n> cursor
// semantics the result streams use (a resuming client skips the first n
// spans of the absolute sequence; a cursor behind the ring's eviction
// horizon is clamped forward). The stream stays open while the sweep
// runs, delivering spans as they finish, and terminates once the
// recorder is sealed and fully drained. A coordinator's recorder spans
// the whole fleet (worker spans are imported as each shard completes).
// A sweep submitted without a trace id has no recorder and reports 404.
func serveTrace(w http.ResponseWriter, r *http.Request, run *Run) {
	rec := run.Trace
	if rec == nil {
		WriteError(w, http.StatusNotFound, wire.CodeNotFound, false,
			"job %q was not traced (submit with a \"trace\" id)", run.ID)
		return
	}
	var from int64
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, false,
				"from must be a non-negative integer, got %q", q)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A disconnecting client must unblock the Next wait; Interrupt
	// serialises with its check-then-wait window, so the wake-up cannot
	// be lost.
	ctx := r.Context()
	stop := func() bool { return ctx.Err() != nil }
	go func() {
		<-ctx.Done()
		rec.Interrupt()
	}()

	for {
		spans, next, done := rec.Next(from, stop)
		if ctx.Err() != nil {
			return
		}
		from = next
		for _, s := range spans {
			if enc.Encode(wire.SpanLineOf(s)) != nil {
				return // client went away
			}
		}
		if flusher != nil && (len(spans) > 0 || done) {
			flusher.Flush()
		}
		if done {
			return
		}
	}
}
