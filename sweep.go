package harvsim

// This file is the batch sub-surface of the facade: concurrent sweeps,
// ensemble statistics and the content-addressed result cache. See
// harvsim.go for the core model and serve.go for the service layer.

import (
	"context"

	"harvsim/internal/batch"
)

// BatchJob is one scenario execution request for the concurrent runner.
type BatchJob = batch.Job

// BatchResult is a job's captured outcome (metrics, stats, error).
type BatchResult = batch.Result

// BatchOptions configures the worker pool; the zero value uses
// GOMAXPROCS workers.
type BatchOptions = batch.Options

// BatchSummary aggregates a result set (extrema, argmax, error tally).
type BatchSummary = batch.Summary

// SweepSpec declares a cartesian parameter sweep over a base job.
type SweepSpec = batch.SweepSpec

// SweepAxis is one named dimension of a sweep.
type SweepAxis = batch.Axis

// FloatAxis builds a sweep dimension over a float knob.
func FloatAxis(name string, values []float64, set func(j *BatchJob, v float64)) SweepAxis {
	return batch.FloatAxis(name, values, set)
}

// IntAxis builds a sweep dimension over an integer knob.
func IntAxis(name string, values []int, set func(j *BatchJob, v int)) SweepAxis {
	return batch.IntAxis(name, values, set)
}

// EngineAxis builds a sweep dimension over the solver kind.
func EngineAxis(kinds ...EngineKind) SweepAxis { return batch.EngineAxis(kinds...) }

// RunBatch executes the jobs across a worker pool; results come back in
// job order and are bit-identical to a serial run. Every job, seed
// ensemble members included, takes the same per-job path (with
// BatchOptions.Cache set: cache lookup and in-flight deduplication).
func RunBatch(ctx context.Context, jobs []BatchJob, opt BatchOptions) []BatchResult {
	return batch.Run(ctx, jobs, opt)
}

// RunBatchSerial executes the jobs one after another on the calling
// goroutine — the reference execution pooled runs match bit for bit.
func RunBatchSerial(jobs []BatchJob, opt BatchOptions) []BatchResult {
	return batch.RunSerial(jobs, opt)
}

// Sweep expands the cartesian spec and runs it across the pool.
func Sweep(ctx context.Context, spec SweepSpec, opt BatchOptions) ([]BatchResult, error) {
	return batch.Sweep(ctx, spec, opt)
}

// SummarizeBatch reduces a result slice to its aggregate summary
// (extrema, argmax, error tally, cache-hit count).
func SummarizeBatch(results []BatchResult) BatchSummary { return batch.Summarize(results) }

// Cache is the content-addressed result store the batch layer consults
// when BatchOptions.Cache is set: an in-memory LRU over collision-safe
// job-identity hashes, optionally backed by an on-disk directory, with
// hit/miss/stale counters (Cache.Stats). Because every run is a pure
// function of its job identity, a cache hit is bit-identical to the
// simulation it elides; entries are stamped with a schema version so
// engine changes can never serve stale physics.
type Cache = batch.Cache

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats = batch.CacheStats

// CacheKey is the content-addressed identity of a batch job.
type CacheKey = batch.CacheKey

// NewCache returns an in-memory result cache holding up to capacity
// entries (<= 0 selects the default capacity).
func NewCache(capacity int) *Cache { return batch.NewCache(capacity) }

// NewDiskCache returns a result cache backed by dir, so warm starts
// survive across processes.
func NewDiskCache(capacity int, dir string) (*Cache, error) {
	return batch.NewDiskCache(capacity, dir)
}

// CacheKeyOf computes a job's cache key under the given options — the
// serialisable job identity a sweep server or shard coordinator can use
// to route and deduplicate work.
func CacheKeyOf(job BatchJob, opt BatchOptions) CacheKey { return batch.KeyOf(job, opt) }

// Cacheable reports whether a job's result may be cached (no retained
// engines, no Probe side effects, any custom Metric declared pure via
// MetricKey).
func Cacheable(job BatchJob, opt BatchOptions) bool { return batch.Cacheable(job, opt) }

// CacheKeys returns each job's stable key string under opt — lowercase
// hex for cacheable jobs, "" otherwise. This is the identity the shard
// coordinator hashes to place jobs on workers.
func CacheKeys(jobs []BatchJob, opt BatchOptions) []string { return batch.Keys(jobs, opt) }

// Seeds derives n realisation seeds from a base seed via the repo's
// splitmix64 seed-derivation rule (see DESIGN.md), for use with
// SeedAxis.
func Seeds(base uint64, n int) []uint64 { return batch.Seeds(base, n) }

// SeedAxis builds an ensemble sweep dimension over noise-realisation
// seeds: jobs expanded from it share a Group per design point, which the
// ensemble reductions aggregate over.
func SeedAxis(name string, seeds []uint64, set func(j *BatchJob, seed uint64)) SweepAxis {
	return batch.SeedAxis(name, seeds, set)
}

// EnsemblePoint is one design point's reduction over its seed
// realisations: mean, unbiased variance and 95% confidence half-width
// of the metric.
type EnsemblePoint = batch.EnsemblePoint

// BasinStat is the per-final-basin Metric statistics of one ensemble
// point (bistable workloads; see EnsemblePoint.Basins).
type BasinStat = batch.BasinStat

// Ensembles groups results by design point and reduces each group's
// realisations to ensemble statistics, deterministically across serial
// and pooled execution.
func Ensembles(results []BatchResult) []EnsemblePoint { return batch.Ensembles(results) }

// EnsembleTop ranks ensemble points by their mean metric, descending.
func EnsembleTop(points []EnsemblePoint, k int) []EnsemblePoint {
	return batch.EnsembleTop(points, k)
}

// EnsembleTable renders ensemble points as a fixed-width table.
func EnsembleTable(points []EnsemblePoint) string { return batch.EnsembleTable(points) }

// PoolCache recycles per-worker workspace pools across batch runs — the
// hand-off point a long-lived front-end shares via BatchOptions.Pools so
// later requests inherit earlier requests' warmed workspaces.
type PoolCache = batch.PoolCache

// NewPoolCache returns an empty cross-run workspace pool cache.
func NewPoolCache() *PoolCache { return batch.NewPoolCache() }

// EngineStats is the engine-kind-independent per-run counter set: steps,
// rejected attempts, Jacobian refactorisations, elimination/Newton
// solves, stability recomputes and (when measured) heap allocations.
type EngineStats = batch.EngineStats

// StatsOf extracts the unified counters from any engine built by a
// Harvester, so front-ends report the same numbers for the proposed and
// implicit solvers.
func StatsOf(eng Engine) EngineStats { return batch.StatsOf(eng) }
