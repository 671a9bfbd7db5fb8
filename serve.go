package harvsim

// This file is the service sub-surface of the facade: the HTTP sweep
// server a single host runs (Serve) and the shard coordinator that
// fronts a fleet of them (Coordinate). Both are one HTTP front — one
// validation and budget path — over a local or a fan-out executor, and
// speak the versioned wire API (internal/wire, WireVersion): POST
// /v1/sweep in, one NDJSON stream of results plus a summary line out,
// every non-2xx response carrying the canonical {"error":{"code",
// "message","retryable"}} envelope. See harvsim.go for the core model
// and sweep.go for the batch layer.

import (
	"harvsim/internal/server"
	"harvsim/internal/shard"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// WireVersion is the wire-schema version this build speaks. Specs and
// summary lines carry it as "v"; a mismatched spec is rejected with
// code "unsupported_version" (see DESIGN.md for the compatibility
// rule).
const WireVersion = wire.Version

// ServeOptions configures a sweep service (worker cap, concurrency,
// budgets, shared cache); the zero value is ready to use.
type ServeOptions = server.Options

// SweepService is the long-lived single-host sweep service: an
// HTTP/JSON front-end over the batch layer with one result cache and
// one workspace-pool set shared across every request, NDJSON streaming
// of per-job results (resumable via a ?from cursor), per-request
// budgets and in-flight deduplication of identical jobs. Mount
// Handler on any mux, or run the standalone cmd/serve binary.
type SweepService = server.Server

// Serve builds the sweep service around a shared cache
// (ServeOptions.Cache, or a fresh in-memory one).
func Serve(opt ServeOptions) *SweepService { return server.New(opt) }

// CoordinateOptions configures a shard coordinator: the worker fleet
// (base URLs of running sweep services), budgets and failure-handling
// knobs.
type CoordinateOptions = shard.Options

// Coordinator is the SweepService's front with a fan-out executor: it
// partitions one sweep across a fleet of sweep services by consistent
// (rendezvous) hash on the jobs' content-address keys, fans the shards
// out over the same wire API a client would use, merges the per-worker
// streams into one globally indexed stream, and re-shards the
// unfinished jobs of a worker lost mid-sweep onto the survivors.
// Clients talk to it exactly as they would to a single SweepService.
type Coordinator = shard.Coordinator

// Coordinate builds a shard coordinator over the configured fleet.
// Mount Handler on any mux, or run the standalone cmd/coord binary.
func Coordinate(opt CoordinateOptions) *Coordinator { return shard.New(opt) }

// TraceSpan is one recorded interval of a traced sweep: a named phase
// with trace/parent links, wall-clock start and monotonic duration.
// Sweeps are traced on request (wire field "trace"); GET
// /v1/jobs/{id}/trace replays a traced sweep's spans as NDJSON.
type TraceSpan = tracing.Span

// TraceRecorder is one sweep's flight recorder — a bounded ring of
// finished spans with an absolute-sequence cursor. Embedding processes
// normally never build one directly (the service does, per traced
// request); it is exported for tools that render traces.
type TraceRecorder = tracing.Recorder

// NewTraceID mints a random hex-32 trace id for a sweep request.
func NewTraceID() string { return tracing.NewTraceID() }

// Alert is one threshold crossing reported by a service's alert
// watcher (see SweepService.Alerts / Coordinator.Alerts).
type Alert = tracing.Alert

// Alerts is the registry-level threshold watcher both services embed:
// rules sample metric closures, and notify callbacks fire on rising
// edges only.
type Alerts = tracing.Alerts
