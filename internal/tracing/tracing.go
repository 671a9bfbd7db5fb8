// Package tracing is the sweep fabric's dependency-free span layer: a
// per-sweep flight recorder that follows one request from the shard
// coordinator through a worker's queue/exec split and the batch layer's
// cache-probe/march phases down to the engine's factorisation and
// stability events.
//
// The model is deliberately tiny — W3C-traceparent in spirit, not in
// syntax: one hex-32 trace id per sweep, one hex-16 span id per
// shard/job/engine-phase, parent links, wall-clock starts with
// monotonic-clock durations. Spans accumulate in a bounded log per
// sweep (memory is capped however large the grid is); a trace endpoint
// replays them as NDJSON through the same streamer and ?from cursor
// semantics as the result streams, so a coordinator can merge a
// worker's spans into its own recorder (Import) and a client sees one
// connected trace.
//
// Tracing is strictly observer-grade. Every method is safe on a nil
// *Recorder and a nil *Active, and the off path (nil recorder, the
// default everywhere) performs no allocation and no clock read — the
// batch and engine layers guard their instrumentation behind a single
// nil check, which the zero-overhead tests and the trace-overhead
// benchmark gate pin. Span data never enters cache keys, snapshots or
// summaries: a traced sweep's results are bit-identical to an untraced
// run of the same grid.
package tracing

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"

	"harvsim/internal/linelog"
)

// DefaultCapacity bounds a recorder's span log when New is given no
// explicit capacity: generous for a 4096-job sweep with a handful of
// spans per job, small enough that a retained finished run costs
// kilobytes, not the sweep's working set.
const DefaultCapacity = 32768

// Span is one recorded interval of a sweep: a named phase with parent
// link, wall-clock start and monotonic duration. Spans are value types;
// a Recorder owns the only mutable state.
type Span struct {
	// Trace is the sweep-wide hex-32 trace id every span shares.
	Trace string
	// ID is the span's hex-16 id, unique within the trace (a random
	// per-recorder prefix keeps ids from colliding when a coordinator
	// merges spans recorded on different hosts).
	ID string
	// Parent is the parent span's id; empty marks the trace root.
	Parent string
	// Name is the phase: "sweep", "expand", "queue", "exec", "shard",
	// "job", "probe", "march", "factor", "stability".
	Name string
	// Worker annotates coordinator shard spans with the worker URL.
	Worker string
	// Job is the global expansion index for per-job spans, -1 otherwise.
	Job int
	// Start is the wall-clock start (for display and cross-host
	// alignment; ordering within a recorder is by sequence, not clock).
	Start time.Time
	// Dur is the span's duration, measured on the monotonic clock.
	Dur time.Duration
}

// Recorder is one sweep's flight recorder: a bounded log of finished
// spans with an absolute-sequence cursor, so trace streams can resume
// (?from) and survive eviction of the oldest spans. All methods are
// safe for concurrent use and on a nil receiver (the "tracing off"
// state).
type Recorder struct {
	trace  string
	prefix uint64        // random high bits of every span id minted here
	seq    atomic.Uint64 // span-id sequence (monotonic, never reused)
	spans  *linelog.Log[Span]
}

// New builds a recorder for one sweep. trace selects the trace id (a
// client-minted hex-32); empty mints a fresh one. capacity bounds the
// span log (0 = DefaultCapacity); the oldest spans are evicted first.
func New(trace string, capacity int) *Recorder {
	if trace == "" {
		trace = NewTraceID()
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{trace: trace, prefix: randomPrefix(), spans: linelog.New[Span](capacity)}
}

// NewTraceID mints a random hex-32 trace id.
func NewTraceID() string {
	var b [16]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// randomPrefix returns the random 32 high bits all of one recorder's
// span ids share, so ids minted on different hosts cannot collide when
// their spans are merged into one trace.
func randomPrefix() uint64 {
	var b [4]byte
	rand.Read(b[:])
	return uint64(binary.BigEndian.Uint32(b[:])) << 32
}

// Trace returns the trace id ("" on a nil recorder).
func (r *Recorder) Trace() string {
	if r == nil {
		return ""
	}
	return r.trace
}

// nextID mints a span id.
func (r *Recorder) nextID() string {
	id := r.prefix | (r.seq.Add(1) & 0xffffffff)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return hex.EncodeToString(b[:])
}

// Active is an open span: Start returned it, End records it. Safe on a
// nil receiver (the off path's no-op handle).
type Active struct {
	rec   *Recorder
	span  Span
	start time.Time
}

// Start opens a span with Job = -1 (a non-job phase). On a nil
// recorder it returns nil, whose methods are all no-ops.
func (r *Recorder) Start(name, parent string) *Active {
	return r.StartJob(name, parent, -1)
}

// StartJob opens a span tagged with a global job index.
func (r *Recorder) StartJob(name, parent string, job int) *Active {
	if r == nil {
		return nil
	}
	now := time.Now()
	return &Active{
		rec:   r,
		start: now,
		span: Span{
			Trace:  r.trace,
			ID:     r.nextID(),
			Parent: parent,
			Name:   name,
			Job:    job,
			Start:  now,
		},
	}
}

// ID returns the open span's id ("" on nil), for parenting children.
func (a *Active) ID() string {
	if a == nil {
		return ""
	}
	return a.span.ID
}

// SetWorker annotates the open span with a worker URL.
func (a *Active) SetWorker(worker string) {
	if a != nil {
		a.span.Worker = worker
	}
}

// End closes the span (duration from the monotonic clock) and records
// it. Safe to call at most once; on a nil receiver it is a no-op.
func (a *Active) End() {
	if a == nil {
		return
	}
	a.span.Dur = time.Since(a.start)
	a.rec.Import(a.span)
}

// Add records an already-measured interval as a span — the hook for
// phases timed without an open handle (engine phase accumulators, an
// expansion timed before the recorder existed). Returns the new span's
// id ("" on a nil recorder).
func (r *Recorder) Add(name, parent string, job int, start time.Time, d time.Duration) string {
	if r == nil {
		return ""
	}
	s := Span{Trace: r.trace, ID: r.nextID(), Parent: parent, Name: name, Job: job, Start: start, Dur: d}
	r.Import(s)
	return s.ID
}

// Import appends a fully formed span — the merge point where a
// coordinator folds a worker's replayed spans into the sweep's own
// recorder. Spans keep their original ids and trace id is normalised to
// this recorder's. No-op on a nil recorder or after Finish.
func (r *Recorder) Import(s Span) {
	if r == nil {
		return
	}
	s.Trace = r.trace
	r.spans.Append(s)
}

// Finish seals the recorder: trace streams drain and terminate, later
// Imports are dropped. Idempotent; no-op on nil.
func (r *Recorder) Finish() {
	if r != nil {
		r.spans.Seal()
	}
}

// Finished reports whether the recorder is sealed.
func (r *Recorder) Finished() bool {
	return r == nil || r.spans.Sealed()
}

// Len returns the number of spans recorded so far, evicted ones
// included (the absolute sequence height).
func (r *Recorder) Len() int64 {
	if r == nil {
		return 0
	}
	return r.spans.Len()
}

// Retained returns the number of spans the log holds: Len minus the
// evicted ones.
func (r *Recorder) Retained() int {
	if r == nil {
		return 0
	}
	return r.spans.Retained()
}

// Snapshot copies the retained spans from absolute cursor from onward
// (clamped past evictions) without blocking, returning the next cursor.
func (r *Recorder) Snapshot(from int64) (spans []Span, next int64) {
	if r == nil {
		return nil, from
	}
	chunk, next, _ := r.spans.Since(from)
	return append(spans, chunk...), next
}

// Spans returns the recorder's span log, the source a trace stream
// follows (nil on a nil recorder).
func (r *Recorder) Spans() *linelog.Log[Span] {
	if r == nil {
		return nil
	}
	return r.spans
}
