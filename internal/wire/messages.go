package wire

import (
	"errors"
	"fmt"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/tracing"
)

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Spec Spec `json:"spec"`
	// Indices, when non-empty, restricts execution to these indices of
	// the spec's full row-major expansion — the shard subset a
	// coordinator assigns one worker. They must be strictly increasing
	// and in range. Result lines keep the global expansion indices, so
	// a coordinator can merge shard streams into one globally indexed
	// stream; jobs outside the subset are neither expanded nor run.
	Indices []int `json:"indices,omitempty"`
	// Workers requests a pool size; the server clamps it to its own
	// per-request cap. 0 selects the server's default.
	Workers int `json:"workers,omitempty"`
	// SettleFrac is the transient fraction discarded before power
	// metrics (part of the job identity); 0 selects the batch default.
	SettleFrac float64 `json:"settle_frac,omitempty"`
	// BudgetMS requests a wall-clock budget; the server or coordinator
	// clamps it to its own per-request maximum and cancels the sweep's
	// context when it expires. On a coordinator the budget bounds the
	// whole coordinated sweep, re-shards included: undelivered jobs
	// stream as failed when it expires. 0 selects the maximum.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// NoLockstep is accepted and ignored. It used to opt a sweep out of
	// the ensemble-lockstep dispatch, which is gone: every job now runs
	// on its own. The field stays because both decoders reject unknown
	// fields and the v1 compatibility rule lets a v1 client keep sending
	// it; servers neither read it nor forward it to workers.
	NoLockstep bool `json:"no_lockstep,omitempty"`
	// Trace, when non-empty, enables span recording for this sweep under
	// the given trace id (32 hex chars, W3C-traceparent style). Tracing
	// is observer-grade: it never changes results, cache keys or
	// summaries, and the server records nothing when the field is absent.
	Trace string `json:"trace,omitempty"`
	// Span is the caller's parent span id (16 hex chars) — the sweep's
	// root span links to it, so a coordinator's shard span and the
	// worker-side spans it fans out to form one connected trace.
	Span string `json:"span,omitempty"`
}

// SweepAccepted is the 202 response to a submitted sweep.
type SweepAccepted struct {
	V         int    `json:"v"`
	ID        string `json:"id"`
	Jobs      int    `json:"jobs"`
	StatusURL string `json:"status_url"`
	StreamURL string `json:"stream_url"`
}

// Stream line types: every NDJSON line carries a "type" discriminator.
const (
	LineResult  = "result"
	LineSummary = "summary"
	// LineSpan lines appear on GET /v1/jobs/{id}/trace only — never in
	// the result stream, which stays byte-identical with tracing on.
	LineSpan = "span"
)

// Result is the wire form of one job's outcome — an NDJSON stream line
// (Type == "result") and the element of a finished job's result list.
// Metric values are bit-exact: finite floats encode in Go's shortest
// round-trip form, so equal physics produces byte-equal JSON.
type Result struct {
	Type  string `json:"type,omitempty"`
	Index int    `json:"index"`
	Name  string `json:"name"`
	Group string `json:"group,omitempty"`
	Seed  Seed   `json:"seed,omitempty"`
	// Key is the job's content-addressed cache identity (hex), when the
	// job is cacheable — the handle a client or shard coordinator can
	// dedupe and route by.
	Key       string `json:"key,omitempty"`
	Error     string `json:"error,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Shared    bool   `json:"shared,omitempty"`
	ElapsedUS int64  `json:"elapsed_us"`
	Metric    Float  `json:"metric"`
	RMSPower  Float  `json:"rms_power"`
	MeanPower Float  `json:"mean_power"`
	FinalVc   Float  `json:"final_vc"`
	Steps     int    `json:"steps"`

	// Bistable basin accounting (additive v1-compatible fields, omitted
	// for monostable workloads): full-run inter-well transits, transits
	// inside the settled window, and the sign of the final well.
	Transits        int `json:"transits,omitempty"`
	SettledTransits int `json:"settled_transits,omitempty"`
	FinalBasin      int `json:"final_basin,omitempty"`

	// SpanMS is the per-phase wall-time breakdown (milliseconds) recorded
	// when the sweep ran with tracing enabled — observability only, never
	// part of the job identity, absent when tracing is off.
	SpanMS map[string]Float `json:"span_ms,omitempty"`
}

// ResultOf converts a batch result for the wire. The content-address
// key is the one the batch cache run already computed (empty for
// uncacheable jobs).
func ResultOf(r batch.Result) Result {
	out := Result{
		Type:      LineResult,
		Index:     r.Index,
		Name:      r.Name,
		Group:     r.Job.Group,
		Seed:      Seed(r.Job.Seed),
		Key:       r.Key,
		Cached:    r.Cached,
		Shared:    r.Shared,
		ElapsedUS: r.Elapsed.Microseconds(),
		Metric:    Float(r.Metric),
		RMSPower:  Float(r.RMSPower),
		MeanPower: Float(r.MeanPower),
		FinalVc:   Float(r.FinalVc),
		Steps:     r.Stats.Steps,

		Transits:        r.Transits,
		SettledTransits: r.SettledTransits,
		FinalBasin:      r.FinalBasin,
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	if len(r.Phases) > 0 {
		out.SpanMS = make(map[string]Float, len(r.Phases))
		for name, d := range r.Phases {
			out.SpanMS[name] = Float(float64(d) / float64(time.Millisecond))
		}
	}
	return out
}

// Summary is the final NDJSON stream line (Type == "summary") and the
// aggregate block of a finished job's status. The fleet fields
// (Workers, Resharded, Retries, LostWorkers) are filled by the shard
// coordinator only; a single worker's summary omits them.
type Summary struct {
	Type      string `json:"type,omitempty"`
	V         int    `json:"v"`
	Jobs      int    `json:"jobs"`
	Failed    int    `json:"failed"`
	CacheHits int    `json:"cache_hits"`
	Shared    int    `json:"shared"`
	Steps     int    `json:"steps"`
	// WallMS is execution wall time only. A sweep that waited for an
	// execution slot (server MaxActive backlog) reports that wait in
	// QueuedMS instead of folding it in here, so latency accounting and
	// benchmark numbers stay meaningful under contention; end-to-end
	// client-visible time is QueuedMS + WallMS.
	WallMS    int64  `json:"wall_ms"`
	QueuedMS  int64  `json:"queued_ms,omitempty"`
	CPUMS     int64  `json:"cpu_ms"`
	MaxMetric Float  `json:"max_metric"`
	ArgMax    string `json:"argmax,omitempty"`

	// Transits sums the jobs' full-run inter-well transit counts and
	// HighOrbit counts jobs still crossing wells in the settled window —
	// additive v1-compatible basin fields, omitted for monostable sweeps.
	Transits  int `json:"transits,omitempty"`
	HighOrbit int `json:"high_orbit,omitempty"`

	// Workers is the fleet size that started serving the sweep.
	Workers int `json:"workers,omitempty"`
	// Resharded counts jobs re-assigned to surviving workers after a
	// worker was lost mid-sweep.
	Resharded int `json:"resharded,omitempty"`
	// Retries counts stream reconnects (?from cursor resumes) that
	// recovered a shard without re-sharding it.
	Retries int `json:"retries,omitempty"`
	// LostWorkers counts workers declared dead during the sweep.
	LostWorkers int `json:"lost_workers,omitempty"`
}

// SummaryOf reduces a finished sweep for the wire.
func SummaryOf(results []batch.Result, wall time.Duration) Summary {
	s := batch.Summarize(results)
	out := Summary{
		Type:      LineSummary,
		V:         Version,
		Jobs:      s.Jobs,
		Failed:    s.Failed,
		CacheHits: s.CacheHits,
		Steps:     s.TotalSteps,
		WallMS:    wall.Milliseconds(),
		CPUMS:     s.CPUTime.Milliseconds(),
		MaxMetric: Float(s.MaxMetric),
		Transits:  s.Transits,
		HighOrbit: s.HighOrbit,
	}
	for _, r := range results {
		if r.Shared {
			out.Shared++
		}
	}
	if s.ArgMaxMetric >= 0 {
		out.ArgMax = results[s.ArgMaxMetric].Name
	} else {
		out.MaxMetric = 0 // no successful job; -Inf sentinel stays internal
	}
	return out
}

// SpanLine is one NDJSON line of GET /v1/jobs/{id}/trace (Type ==
// "span"): a finished span from the sweep's flight recorder. Times are
// integer microseconds so span lines, like result lines, are
// byte-stable across encoders.
type SpanLine struct {
	Type   string `json:"type"`
	V      int    `json:"v"`
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Worker string `json:"worker,omitempty"`
	// Job is the global expansion index the span belongs to; -1 marks
	// sweep-level spans (root, expand, queue, exec, shard).
	Job     int   `json:"job"`
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
}

// SpanLineOf converts a recorded span for the wire.
func SpanLineOf(s tracing.Span) SpanLine {
	return SpanLine{
		Type:    LineSpan,
		V:       Version,
		Trace:   s.Trace,
		ID:      s.ID,
		Parent:  s.Parent,
		Name:    s.Name,
		Worker:  s.Worker,
		Job:     s.Job,
		StartUS: s.Start.UnixMicro(),
		DurUS:   s.Dur.Microseconds(),
	}
}

// SpanOf is the inverse of SpanLineOf — the form a coordinator imports
// worker-side spans through when stitching shard traces into the
// sweep's own recorder.
func SpanOf(l SpanLine) tracing.Span {
	return tracing.Span{
		Trace:  l.Trace,
		ID:     l.ID,
		Parent: l.Parent,
		Name:   l.Name,
		Worker: l.Worker,
		Job:    l.Job,
		Start:  time.UnixMicro(l.StartUS),
		Dur:    time.Duration(l.DurUS) * time.Microsecond,
	}
}

// JobStatus is the GET /v1/jobs/{id} response.
type JobStatus struct {
	V         int      `json:"v"`
	ID        string   `json:"id"`
	State     string   `json:"state"` // "running" | "done"
	Jobs      int      `json:"jobs"`
	Completed int      `json:"completed"`
	Failed    int      `json:"failed"`
	CacheHits int      `json:"cache_hits"`
	Shared    int      `json:"shared"`
	ElapsedMS int64    `json:"elapsed_ms"`
	Summary   *Summary `json:"summary,omitempty"`
	Results   []Result `json:"results,omitempty"` // when done and ?results=1
}

// Job states.
const (
	StateRunning = "running"
	StateDone    = "done"
)

// CacheStats is the GET /v1/cache/stats response.
type CacheStats struct {
	V         int    `json:"v"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Stale     int64  `json:"stale"`
	DiskHits  int64  `json:"disk_hits"`
	Shared    int64  `json:"shared"`
	Evictions int64  `json:"evictions"`
	Entries   int    `json:"entries"`
	Dir       string `json:"dir,omitempty"`
}

// CacheStatsOf snapshots a batch cache for the wire.
func CacheStatsOf(c *batch.Cache) CacheStats {
	s := c.Stats()
	return CacheStats{
		V:         Version,
		Hits:      s.Hits,
		Misses:    s.Misses,
		Stale:     s.Stale,
		DiskHits:  s.DiskHits,
		Shared:    s.Shared,
		Evictions: s.Evictions,
		Entries:   s.Entries,
		Dir:       c.Dir(),
	}
}

// Error codes: the stable machine-readable identifiers of the canonical
// error envelope. Clients branch on Code, never on Message text.
const (
	CodeBadRequest         = "bad_request"         // malformed body or invalid spec
	CodeUnsupportedVersion = "unsupported_version" // wire version mismatch (see Version)
	CodeTooManyJobs        = "too_many_jobs"       // expansion exceeds the server's job budget
	CodeNotFound           = "not_found"           // unknown job id or route
	CodeMethodNotAllowed   = "method_not_allowed"  // known route, wrong HTTP method
	CodeNoWorkers          = "no_workers"          // coordinator: no healthy worker to dispatch to
	CodeInternal           = "internal"            // unexpected server-side failure
)

// ErrorDetail is the body of the canonical error envelope.
type ErrorDetail struct {
	// Code is a stable identifier from the Code* set.
	Code string `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
	// Retryable reports whether the identical request may succeed later
	// (transient overload, fleet churn) — false means the request itself
	// is wrong and retrying is pointless.
	Retryable bool `json:"retryable"`
}

// Error is the canonical JSON error envelope every non-2xx response
// from the sweep service and the shard coordinator carries:
// {"error": {"code", "message", "retryable"}}.
type Error struct {
	Error ErrorDetail `json:"error"`
}

// Errorf builds an error envelope.
func Errorf(code string, retryable bool, format string, args ...any) Error {
	return Error{Error: ErrorDetail{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		Retryable: retryable,
	}}
}

// Health is the GET /healthz response. Workers is reported by the
// coordinator only (its configured fleet size).
type Health struct {
	V            int    `json:"v"`
	Status       string `json:"status"`
	ActiveSweeps int    `json:"active_sweeps"`
	CacheEntries int    `json:"cache_entries,omitempty"`
	Workers      int    `json:"workers,omitempty"`
}

// Worker lifecycle states reported by GET /v1/workers.
const (
	// WorkerLive: the worker answers health probes and receives shards.
	WorkerLive = "live"
	// WorkerDraining: planned maintenance — excluded from new shard
	// placement (re-shards included) while in-flight streams finish.
	WorkerDraining = "draining"
	// WorkerLost: the worker failed its health probe.
	WorkerLost = "lost"
)

// WorkerStatus is one worker's probe outcome in GET /v1/workers.
type WorkerStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// State is the coordinator's placement view of the worker:
	// WorkerLive, WorkerDraining or WorkerLost. Draining wins over the
	// probe outcome — a draining worker may still be healthy.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// FleetStatus is the coordinator's GET /v1/workers response.
type FleetStatus struct {
	V       int            `json:"v"`
	Workers []WorkerStatus `json:"workers"`
}

// DrainStatus acknowledges POST /v1/workers/drain.
type DrainStatus struct {
	V      int    `json:"v"`
	Worker string `json:"worker"`
	State  string `json:"state"`
}

// BatchResultOf reconstructs the batch-layer view of a wire result — the
// inverse of ResultOf over the fields the wire carries. Remote clients
// (cmd/sweep -remote) and the shard coordinator reduce streams through
// it so rankings and summaries run the exact code path a local run uses;
// metric floats round-trip bit-exactly, so the reductions agree bit for
// bit with a local sweep.
func BatchResultOf(r Result) batch.Result {
	br := batch.Result{
		Index:     r.Index,
		Name:      r.Name,
		Job:       batch.Job{Name: r.Name, Group: r.Group, Seed: uint64(r.Seed)},
		Key:       r.Key,
		Elapsed:   time.Duration(r.ElapsedUS) * time.Microsecond,
		FinalVc:   float64(r.FinalVc),
		RMSPower:  float64(r.RMSPower),
		MeanPower: float64(r.MeanPower),
		Metric:    float64(r.Metric),
		Cached:    r.Cached,
		Shared:    r.Shared,

		Transits:        r.Transits,
		SettledTransits: r.SettledTransits,
		FinalBasin:      r.FinalBasin,
	}
	br.Stats.Steps = r.Steps
	if r.Error != "" {
		br.Err = errors.New(r.Error)
	}
	return br
}
