package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"harvsim/internal/linelog"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// Run is one submitted sweep's lifecycle state: the front owns it and
// an executor (local pool or shard fan-out) records into it. Its result
// lines accumulate in completion order (the stream order) in one
// unbounded log, which Finish seals after storing the summary line.
type Run struct {
	ID      string
	Total   int
	Started time.Time
	Cancel  context.CancelFunc
	// Trace is the sweep's flight recorder, non-nil only when the request
	// asked for tracing; set before the 202 is written and never after,
	// so handlers read it without the run lock.
	Trace *tracing.Recorder

	lines *linelog.Log[wire.Result]

	mu      sync.Mutex // guards summary
	summary wire.Summary
}

// Record appends one completed job's wire result (called concurrently
// from every worker / every shard stream). Each index is recorded once,
// so MaxJobs bounds the log.
func (run *Run) Record(r wire.Result) { run.lines.Append(r) }

// Finish marks the run complete with its summary line. The summary is
// stored before the seal, so whoever sees the seal reads it.
func (run *Run) Finish(summary wire.Summary) {
	run.mu.Lock()
	run.summary = summary
	run.mu.Unlock()
	run.lines.Seal()
}

// Done reports completion.
func (run *Run) Done() bool { return run.lines.Sealed() }

// Results returns the recorded lines in completion order: a view of the
// log that the caller must not write.
func (run *Run) Results() []wire.Result {
	lines, _, _ := run.lines.Since(0)
	return lines
}

// finalSummary returns the summary line of a finished run.
func (run *Run) finalSummary() wire.Summary {
	run.mu.Lock()
	defer run.mu.Unlock()
	return run.summary
}

// Status snapshots the run as a wire.JobStatus; withResults includes the
// completion-ordered result list when done. The lines and the seal are
// read at one instant, so a status that reads done lists every result.
func (run *Run) Status(withResults bool) wire.JobStatus {
	lines, _, done := run.lines.Since(0)
	st := wire.JobStatus{
		V:         wire.Version,
		ID:        run.ID,
		State:     wire.StateRunning,
		Jobs:      run.Total,
		Completed: len(lines),
		ElapsedMS: time.Since(run.Started).Milliseconds(),
	}
	for _, r := range lines {
		if r.Error != "" {
			st.Failed++
		}
		if r.Cached {
			st.CacheHits++
		}
		if r.Shared {
			st.Shared++
		}
	}
	if done {
		sum := run.finalSummary()
		st.State = wire.StateDone
		// End-to-end elapsed: queue wait plus execution wall (they are
		// reported separately in the summary).
		st.ElapsedMS = sum.QueuedMS + sum.WallMS
		st.Summary = &sum
		if withResults {
			st.Results = append([]wire.Result(nil), lines...)
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
	run := &Run{ID: id, Total: total, Started: time.Now(), Cancel: cancel, lines: linelog.New[wire.Result](0)}
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
// progressively because each chunk is flushed as written.
func serveStream(w http.ResponseWriter, r *http.Request, run *Run) {
	serveLines(w, r, run.lines,
		func(res *wire.Result) any { return res },
		func() any { return run.finalSummary() })
}

// serveTrace replays a sweep's flight recorder as NDJSON — one
// wire.SpanLine per finished span, with the same ?from=<n> cursor
// semantics the result streams use (a resuming client skips the first n
// spans of the absolute sequence; a cursor behind the log's eviction
// horizon is clamped forward). The stream stays open while the sweep
// runs, delivering spans as they finish, and terminates once the
// recorder is sealed and fully drained. A coordinator's recorder spans
// the whole fleet (worker spans are imported as each shard completes).
// A sweep submitted without a trace id has no recorder and reports 404.
func serveTrace(w http.ResponseWriter, r *http.Request, run *Run) {
	if run.Trace == nil {
		WriteError(w, http.StatusNotFound, wire.CodeNotFound, false,
			"job %q was not traced (submit with a \"trace\" id)", run.ID)
		return
	}
	serveLines(w, r, run.Trace.Spans(),
		func(s *tracing.Span) any { return wire.SpanLineOf(*s) },
		nil)
}

// serveLines streams a log as NDJSON from the absolute ?from=<n> cursor
// on: line renders each entry as it is appended, every chunk is flushed
// as written, and once the log is sealed and drained the trailer's line
// (when trailer is non-nil) ends the stream. A client that goes away
// ends it early.
func serveLines[T any](w http.ResponseWriter, r *http.Request, lines *linelog.Log[T], line func(*T) any, trailer func() any) {
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
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	err := lines.Follow(r.Context(), from, func(chunk []T) error {
		for i := range chunk {
			if err := enc.Encode(line(&chunk[i])); err != nil {
				return err // client went away
			}
		}
		flush()
		return nil
	})
	if err != nil {
		return
	}
	if trailer != nil {
		enc.Encode(trailer())
	}
	flush()
}
