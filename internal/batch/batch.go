// Package batch runs many harvester scenarios concurrently across a
// worker pool — the workload the paper's conclusion motivates ("the best
// topology and optimal parameters of the energy harvester are obtained
// iteratively using multiple simulations") scaled to all available
// cores. Jobs are embarrassingly parallel: each worker assembles its own
// harvester and engine from the job's value-typed Config, so no
// simulation state is shared between goroutines (the only shared data
// are read-only PWL tables). Results come back in job order regardless
// of scheduling, which makes pooled runs bit-identical to serial ones.
//
// # Determinism contract
//
// A job's Result is a pure function of its identity — (Config, scenario
// schedule, engine kind, decimation, settle fraction, metric): equal
// identities produce bit-identical Results whether executed serially,
// across the pool, on recycled workspaces, or in a different process.
// The root determinism test suite pins this. Two layers build on it:
//
//   - the content-addressed result Cache (Options.Cache) keys Results by
//     a collision-safe hash of the job identity (KeyOf) and serves
//     repeat jobs without simulating — refinement sweeps that revisit
//     the argmax region become nearly free;
//   - seed-ensemble statistics (SeedAxis, Ensembles, EnsembleTop,
//     EnsembleTable) expand a sweep over stochastic-excitation seeds and
//     reduce each design point's realisations to mean / variance /
//     confidence-interval power estimates, turning single-draw numbers
//     into honest expectations.
package batch

import (
	"context"
	"runtime"
	"sync"
	"time"

	"harvsim/internal/core"
	"harvsim/internal/harvester"
	"harvsim/internal/implicit"
	"harvsim/internal/tracing"
)

// Phase names of the per-job spans a traced run records (Result.Phases
// keys and internal/tracing span names): the cache probe, the
// assemble-and-march pass, and the engine's factorisation / stability
// shares of the march.
const (
	PhaseProbe     = "probe"
	PhaseMarch     = "march"
	PhaseFactor    = "factor"
	PhaseStability = "stability"
)

// DefaultDecimate bounds per-job trace memory when a job does not choose
// its own decimation: sweeps keep enough waveform for RMS-power metrics
// without retaining every sub-millisecond step of every candidate.
const DefaultDecimate = 64

// Job is one scenario execution request.
type Job struct {
	Name     string
	Scenario harvester.Scenario
	Engine   harvester.EngineKind
	Decimate int // trace decimation; 0 = DefaultDecimate, 1 = keep all

	// Group identifies the design point this job belongs to when a sweep
	// carries an ensemble (seed) axis: all realisations of one point
	// share a Group, and the ensemble reductions (Ensembles, EnsembleTop)
	// aggregate over it. SweepSpec.Jobs fills it in; hand-built job lists
	// may set it directly. Empty means "group by Name".
	Group string

	// Seed is the realisation label a SeedAxis stamped on this job
	// (informational; the physical seed lives wherever the axis setter
	// put it, normally Config.VibNoise.Seed).
	Seed uint64

	// MetricKey declares that the job's Metric closure is a pure,
	// deterministic function of the run, identified by this label, which
	// then enters the cache key. Jobs with a Metric but no MetricKey are
	// never cached: a closure is opaque, so the cache must assume it
	// differs between runs. Ignored when Metric is nil.
	MetricKey string

	// Probe, when set, is called after the engine is built and before it
	// runs — the hook for attaching extra observers (custom recorders,
	// VCD writers). It runs on the worker goroutine. A Probe set on a
	// sweep's Base is shared by every expanded job, so it must derive
	// all per-job state from its (h, eng) arguments; capturing outside
	// state is only safe when the closure is built per job.
	Probe func(h *harvester.Harvester, eng harvester.Engine)

	// Metric, when set, is evaluated after a successful run and stored
	// in Result.Metric — the figure of merit sweeps rank by. When nil,
	// Result.Metric is the settled-window RMS input power. The Base-
	// sharing caveat on Probe applies here too.
	Metric func(h *harvester.Harvester, eng harvester.Engine) float64
}

// EngineStats is the engine-kind-independent slice of the run counters
// (the proposed and implicit engines keep different Stats structs).
type EngineStats struct {
	Steps       int
	Rejected    int
	EventsFired int
	// Refactors counts dense-matrix factorisations: Jyy elimination
	// refreshes for the proposed engine, full Newton-Jacobian LU factors
	// for the implicit baselines.
	Refactors int
	// Solves counts linear-system solves: terminal-variable eliminations
	// (proposed) or Newton iterations (implicit).
	Solves int
	// StabilityRecomputes counts reduced-matrix stability analyses
	// (proposed engine only), StabilityReused those of them served from
	// the run's stability memo rather than computed.
	StabilityRecomputes int
	StabilityReused     int
	// Restarts counts multistep-history restarts at discontinuities
	// (proposed engine only).
	Restarts int
	HMean    float64
	SimTime  float64
}

// StatsOf extracts the unified counters from either engine family.
func StatsOf(eng harvester.Engine) EngineStats {
	switch e := eng.(type) {
	case *core.Engine:
		return EngineStats{
			Steps:               e.Stats.Steps,
			Rejected:            e.Stats.Rejected,
			EventsFired:         e.Stats.EventsFired,
			Refactors:           e.Stats.Refreshes,
			Solves:              e.Stats.YSolves,
			StabilityRecomputes: e.Stats.StabilityRecomputes,
			StabilityReused:     e.Stats.StabilityReused,
			Restarts:            e.Stats.Restarts,
			HMean:               e.Stats.HMean,
			SimTime:             e.Stats.SimTime,
		}
	case *implicit.Engine:
		return EngineStats{
			Steps:       e.Stats.Steps,
			Rejected:    e.Stats.Rejected,
			EventsFired: e.Stats.EventsFired,
			Refactors:   e.Stats.LUFactors,
			Solves:      e.Stats.NewtonIters,
			HMean:       e.Stats.HMean,
			SimTime:     e.Stats.SimTime,
		}
	default:
		return EngineStats{}
	}
}

// Result captures one job's outcome. Index matches the job's position in
// the input slice; the results slice is always in input order.
type Result struct {
	Index   int
	Name    string
	Job     Job // the request this result answers (the argmax's configuration)
	Err     error
	Elapsed time.Duration

	FinalVc    float64   // supercap terminal voltage at the horizon (Harvester.LastVc)
	FinalState []float64 // copy of the engine's state vector
	RMSPower   float64   // RMS input power over the settled window [W]
	MeanPower  float64   // mean input power over the settled window [W]
	Metric     float64   // Job.Metric value, or RMSPower
	Energy     harvester.Energy
	Stats      EngineStats

	// Transits / SettledTransits / FinalBasin are the bistable run's
	// inter-well accounting (harvester.BasinStats): total well-to-well
	// crossings, crossings inside the settled window, and the sign of the
	// final well. All zero for monostable workloads.
	Transits        int
	SettledTransits int
	FinalBasin      int

	// Cached marks a result served from Options.Cache without running an
	// engine. Every other field above is bit-identical to what a fresh
	// run would have produced (Elapsed, which is wall time, is the
	// lookup cost instead of the simulation cost).
	Cached bool

	// Shared marks a cached result obtained by waiting on an identical
	// in-flight computation (singleflight): another worker — possibly
	// serving a different Run on the same Cache — was already simulating
	// this exact job identity, so this job waited for its snapshot
	// instead of recomputing it. Shared implies Cached; Elapsed is the
	// wait time.
	Shared bool

	// Key is the job's content-addressed identity (CacheKey hex),
	// recorded when a cache run computed it — the handle a service
	// front-end or shard coordinator can route and deduplicate by
	// without re-hashing the config. Empty for cache-less runs and
	// uncacheable jobs.
	Key string

	// Phases is the job's per-phase wall-time breakdown (PhaseProbe,
	// PhaseMarch, PhaseFactor, PhaseStability), filled only when the run
	// is traced (Options.Trace). It is observability data, not physics:
	// it never enters cache keys, cache snapshots or summaries, and a
	// traced result is bit-identical to an untraced one on every other
	// field.
	Phases map[string]time.Duration

	// Harvester and Engine are retained only under Options.Keep — a
	// thousand-job sweep must not pin a thousand trace sets.
	Harvester *harvester.Harvester
	Engine    harvester.Engine
}

// Options configures a batch run. The zero value is ready to use.
type Options struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// Keep retains each job's Harvester and Engine in its Result (full
	// traces, stats structs) instead of dropping them after metric
	// extraction.
	Keep bool
	// SettleFrac is the fraction of the horizon discarded before the
	// power metrics are computed (start-up transient); 0 means 1/3.
	SettleFrac float64
	// NoWorkspaceReuse disables the per-worker workspace pools, so every
	// job allocates its Jacobian and engine storage afresh — the PR 1
	// behaviour, kept for A/B benchmarking of the reuse path.
	NoWorkspaceReuse bool

	// NoLockstep has no effect. It used to select solo dispatch over an
	// ensemble-lockstep engine that marched a design point's seeds as one
	// unit; that engine is gone and every job, seed members included,
	// now runs on its own. The field stays so callers that still set it,
	// such as the harvbench ladder, keep compiling.
	//
	// Deprecated: seed-grouped jobs always run as ordinary jobs.
	NoLockstep bool

	// Cache, when set, serves cacheable jobs (see Cacheable) from the
	// content-addressed result store instead of simulating, and stores
	// every fresh successful result back. The cache is shared across the
	// worker pool and across Run calls; because a run is a pure function
	// of its job identity, a hit is bit-identical to the run it elides.
	// Concurrent misses on one key — within a Run or across Runs sharing
	// the cache — are deduplicated in flight (singleflight): one worker
	// simulates, the rest wait for its snapshot (Result.Shared).
	Cache *Cache

	// OnResult, when set, is called exactly once per job as its Result
	// becomes available — the streaming hook a long-lived front-end uses
	// to push partial results to clients while the sweep is still
	// running. Calls happen in completion order (not job order) and may
	// run concurrently from every worker goroutine, so the callback must
	// be safe for concurrent use and should return quickly (it runs on
	// the worker's critical path). Jobs cancelled before starting are
	// reported too, so a stream always accounts for every job. The
	// returned results slice is unaffected.
	OnResult func(Result)

	// Pools, when set, recycles per-worker workspace pools across Run
	// calls: each worker draws a pool at start and hands it back when
	// its Run ends, so a later Run's workers inherit warmed same-shape
	// workspaces instead of allocating storage afresh — the cross-request
	// reuse a long-lived sweep service wants. Ignored under
	// NoWorkspaceReuse.
	Pools *PoolCache

	// Metrics, when set, accumulates per-job counters and engine-run
	// latency into a process-wide instrument bundle (see NewMetrics).
	// Like Cache and Pools it is meant to be shared across Run calls by
	// a long-lived front-end; nil records nothing.
	Metrics *Metrics

	// Trace, when set, records one span per job plus cache-probe, march
	// and engine-phase child spans into the sweep's flight recorder, and
	// fills Result.Phases. nil (the default) is tracing off: no clock
	// reads, no allocations, and bit-identical results — tracing is
	// strictly observer-grade (pinned by the determinism tests and the
	// trace-overhead benchmark gate).
	Trace *tracing.Recorder

	// TraceParent is the span id job spans are parented to (a server's
	// exec span, a CLI's sweep root). Ignored when Trace is nil.
	TraceParent string
}

// EffectiveWorkers resolves the pool size the options select: Workers
// when positive, GOMAXPROCS otherwise. Exported so front-ends report
// the same number the pool actually uses.
func (o Options) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) settleFrac() float64 {
	if o.SettleFrac > 0 && o.SettleFrac < 1 {
		return o.SettleFrac
	}
	return 1.0 / 3.0
}

// Run executes the jobs across the worker pool and returns one Result
// per job, in job order. Cancelling the context stops the pool between
// jobs: jobs not yet started report ctx.Err(), jobs already running
// finish normally (the engines are non-preemptible single sweeps).
func Run(ctx context.Context, jobs []Job, opt Options) []Result {
	results := make([]Result, len(jobs))
	n := opt.EffectiveWorkers()
	if n > len(jobs) {
		n = len(jobs)
	}
	if n < 1 {
		n = 1
	}
	next := make(chan int)
	go func() {
		defer close(next)
		for i := range jobs {
			// Check cancellation before offering the job: with an idle
			// worker ready, the select below would otherwise pick its
			// send case at random even on a done context.
			if ctx.Err() == nil {
				select {
				case next <- i:
					continue
				case <-ctx.Done():
				}
			}
			// Index i was never handed out, so the producer owns
			// results[i:] exclusively — mark them cancelled.
			for j := i; j < len(jobs); j++ {
				results[j] = Result{Index: j, Name: jobName(jobs[j]), Job: jobs[j], Err: ctx.Err()}
				opt.emit(results[j])
			}
			return
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One workspace pool per worker: same-shape jobs on this
			// worker rebuild state, not storage, and the pool never
			// crosses a goroutine boundary while held (it is not
			// locked). With Options.Pools it is returned afterwards so a
			// later Run's workers inherit the warmed workspaces.
			pool := workerPool(opt)
			defer returnWorkerPool(opt, pool)
			for i := range next {
				// Each worker writes only its own index; the slots are
				// disjoint, so no locking is needed.
				results[i] = runOne(i, jobs[i], opt, pool)
				opt.emit(results[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// RunSerial executes the jobs one after another on the calling
// goroutine — the reference execution pooled runs must match
// bit-for-bit, and the baseline the speedup benchmarks compare against.
func RunSerial(jobs []Job, opt Options) []Result {
	results := make([]Result, len(jobs))
	pool := workerPool(opt)
	defer returnWorkerPool(opt, pool)
	for i, job := range jobs {
		results[i] = runOne(i, job, opt, pool)
		opt.emit(results[i])
	}
	return results
}

// emit records a finished Result in the metrics and streams it through
// OnResult.
func (o Options) emit(res Result) {
	o.Metrics.observe(res)
	if o.OnResult != nil {
		o.OnResult(res)
	}
}

// workerPool returns a per-worker workspace pool — recycled from
// Options.Pools when the caller shares one, fresh otherwise — or nil
// when the options disable reuse.
func workerPool(opt Options) *core.WorkspacePool {
	if opt.NoWorkspaceReuse {
		return nil
	}
	if opt.Pools != nil {
		return opt.Pools.Get()
	}
	return core.NewWorkspacePool()
}

// returnWorkerPool hands a worker's pool back to the shared cache, when
// there is one to return it to.
func returnWorkerPool(opt Options, pool *core.WorkspacePool) {
	if pool != nil && opt.Pools != nil {
		opt.Pools.Put(pool)
	}
}

// PoolCache recycles per-worker workspace pools across Run calls. The
// batch runner's pools are single-goroutine while held, so they cannot
// simply be shared; a PoolCache is the locked hand-off point between
// runs — a long-lived front-end (the sweep server) keeps one so request
// N's workers inherit request N-1's warmed same-shape workspaces instead
// of allocating Jacobian and engine storage afresh. The zero value is
// not ready to use; call NewPoolCache.
type PoolCache struct {
	mu   sync.Mutex
	free []*core.WorkspacePool
}

// NewPoolCache returns an empty pool cache.
func NewPoolCache() *PoolCache { return &PoolCache{} }

// Get hands out a recycled workspace pool, or a fresh one when none is
// free.
func (p *PoolCache) Get() *core.WorkspacePool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		ws := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return ws
	}
	return core.NewWorkspacePool()
}

// Put returns a pool for later reuse. The caller must no longer touch
// it: the next Get may hand it to another goroutine.
func (p *PoolCache) Put(ws *core.WorkspacePool) {
	if ws == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, ws)
	p.mu.Unlock()
}

// jobName labels a job, falling back to its scenario's name.
func jobName(job Job) string {
	if job.Name != "" {
		return job.Name
	}
	return job.Scenario.Name
}

// runOne resolves a single job: from the result cache when the options
// carry one and the job is cacheable, otherwise by a fresh simulation
// (whose successful result is then stored back).
//
// The config is validated before any cache interaction: an invalid job
// fails here without ever computing a key, so bad configurations can
// neither be stored nor served — the cache only ever sees identities
// that assembly would accept.
func runOne(idx int, job Job, opt Options, pool *core.WorkspacePool) Result {
	res := Result{Index: idx, Name: jobName(job), Job: job}
	// One span per job, parented to the sweep's exec (or client root)
	// span. Every tracing call below is a no-op when Options.Trace is
	// nil — the default, zero-overhead state.
	jobSpan := opt.Trace.StartJob("job", opt.TraceParent, idx)
	defer jobSpan.End()
	if err := job.Scenario.Cfg.Validate(); err != nil {
		res.Err = err
		return res
	}
	if c := opt.Cache; c != nil && Cacheable(job, opt) {
		start := time.Now()
		key := KeyOf(job, opt)
		res.Key = key.String()
		if snap, ok := c.Get(key); ok {
			snap.fill(&res)
			res.Cached = true
			res.Elapsed = time.Since(start)
			tracePhase(&res, opt, PhaseProbe, jobSpan.ID(), start, res.Elapsed)
			return res
		}
		tracePhase(&res, opt, PhaseProbe, jobSpan.ID(), start, time.Since(start))
		// Miss: lead the computation for this key, or — when another
		// worker (possibly in a different Run on the same cache) is
		// already simulating the identical job — wait for its snapshot.
		snap, err, shared := c.flightDo(key, func() (Snapshot, error) {
			runFresh(&res, job, opt, pool, jobSpan.ID())
			if res.Err != nil {
				return Snapshot{}, res.Err
			}
			snap := snapshotOf(res)
			c.Put(key, snap)
			return snap, nil
		})
		if shared {
			if err != nil {
				// Identical jobs fail identically (the run is a pure
				// function of the identity), so the leader's error is
				// this job's error.
				res.Err = err
			} else {
				snap.fill(&res)
				res.Cached = true
				res.Shared = true
			}
			res.Elapsed = time.Since(start)
		}
		return res
	}
	runFresh(&res, job, opt, pool, jobSpan.ID())
	return res
}

// tracePhase records one measured phase span and accumulates it into
// the result's breakdown. No-op when the run is untraced.
func tracePhase(res *Result, opt Options, name, parent string, start time.Time, d time.Duration) {
	if opt.Trace == nil {
		return
	}
	opt.Trace.Add(name, parent, res.Index, start, d)
	if res.Phases == nil {
		res.Phases = make(map[string]time.Duration, 4)
	}
	res.Phases[name] += d
}

// runFresh assembles, runs and summarises a single job. With a pool, the
// harvester's Jacobian and engine storage comes from recycled same-shape
// workspaces and is handed back after metric extraction (unless the
// caller keeps the harvester), amortising assembly across a sweep.
// parent is the job span the march's trace spans hang off (ignored when
// the run is untraced).
func runFresh(res *Result, job Job, opt Options, pool *core.WorkspacePool, parent string) {
	start := time.Now()
	march := opt.Trace.StartJob(PhaseMarch, parent, res.Index)
	var phases *core.PhaseTimes
	// endMarch closes the march span and records the engine's phase
	// accumulators under it — called on every exit, failures included,
	// so a trace shows where a failed job's time went too.
	endMarch := func() {
		if opt.Trace == nil {
			return
		}
		march.End()
		if res.Phases == nil {
			res.Phases = make(map[string]time.Duration, 4)
		}
		res.Phases[PhaseMarch] += time.Since(start)
		if phases != nil {
			opt.Trace.Add(PhaseFactor, march.ID(), res.Index, start, phases.Refactor)
			opt.Trace.Add(PhaseStability, march.ID(), res.Index, start, phases.Stability)
			res.Phases[PhaseFactor] += phases.Refactor
			res.Phases[PhaseStability] += phases.Stability
		}
	}
	h, err := harvester.AssembleWith(job.Scenario, pool)
	if err != nil {
		res.Err = err
		res.Elapsed = time.Since(start)
		endMarch()
		return
	}
	dec := job.Decimate
	if dec == 0 {
		dec = DefaultDecimate
	}
	eng := h.NewEngine(job.Engine, dec)
	if opt.Trace != nil {
		// Engine-phase timing rides only on traced runs; the proposed
		// engine is the one with the refactor/stability split to expose.
		if ce, ok := eng.(*core.Engine); ok {
			phases = &core.PhaseTimes{}
			ce.Phases = phases
		}
	}
	if job.Probe != nil {
		job.Probe(h, eng)
	}
	// The settled-transit boundary is the power metrics' settle window,
	// which is part of the cache identity (KeyOf hashes settleFrac).
	h.SetBasinSettle(job.Scenario.Duration * opt.settleFrac())
	if err := h.RunEngine(eng, job.Scenario.Duration); err != nil {
		res.Err = err
		res.Elapsed = time.Since(start)
		endMarch()
		h.Release()
		return
	}
	res.Elapsed = time.Since(start)
	endMarch()
	opt.Metrics.observeEngineRun(res.Elapsed)

	res.FinalVc = h.LastVc()
	res.FinalState = append([]float64(nil), eng.State()...)
	settled := h.PMultIn.Slice(job.Scenario.Duration*opt.settleFrac(), job.Scenario.Duration)
	res.RMSPower = settled.RMS()
	res.MeanPower = settled.Mean()
	if job.Metric != nil {
		res.Metric = job.Metric(h, eng)
	} else {
		res.Metric = res.RMSPower
	}
	res.Energy = h.Energy
	res.Stats = StatsOf(eng)
	bs := h.BasinStats()
	res.Transits, res.SettledTransits, res.FinalBasin = bs.Transits, bs.SettledTransits, bs.FinalBasin
	if opt.Keep {
		res.Harvester = h
		res.Engine = eng
	} else {
		// The result has copied everything it needs; the workspace goes
		// back to the worker's pool for the next same-shape job.
		h.Release()
	}
}
