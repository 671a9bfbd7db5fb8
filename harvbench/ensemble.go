package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"

	"harvsim/internal/batch"
	"harvsim/internal/harvester"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// The ensemble_cold request: a noise-scenario spec with a design axis of
// two coil resistances (one lockstep unit per server worker) and a seed
// axis of ensembleK members, at a tone count where evaluating the
// excitation dominates the engine step.
const (
	ensembleTones   = 1024
	ensembleK       = 8
	ensembleHorizon = 0.25
)

// ensembleSpec is the ensemble_cold sweep for one base seed.
func ensembleSpec(baseSeed uint64) wire.Spec {
	rc := harvester.DefaultConfig().Microgen.Rc
	return wire.Spec{
		V:    wire.Version,
		Name: "ens",
		Scenario: wire.Scenario{
			Kind: "noise", DurationS: ensembleHorizon, NoiseFLoHz: 55, NoiseFHiHz: 85,
			Set: map[string]float64{"noise.rms": 2, "noise.tones": ensembleTones},
		},
		Axes: []wire.Axis{
			{Kind: wire.AxisFloat, Param: "microgen.rc", Values: []float64{rc, 1.5 * rc}},
			{Kind: wire.AxisSeed, BaseSeed: wire.Seed(baseSeed), Count: ensembleK},
		},
	}
}

// tracedReq is a traced request whose spans are fetched after the window.
type tracedReq struct {
	id     string
	span   wire.SpanLine
	points int
}

// ensembleCold is the ensemble_cold workload: one client on one HTTP
// connection to one in-process sweep server with two workers. Every
// request draws a fresh base seed, so every job misses the cache, marches
// in a lockstep unit and is written back.
type ensembleCold struct {
	common
	fl     *fleet
	client *http.Client
	rng    *rand.Rand
	pt     harvester.Scenario // the first member of the warm-up request
	checks *wire.Spec         // the first measured request, re-run serially by check
	lines  []wire.Result
	tmu    sync.Mutex
	traced []tracedReq
}

func newEnsembleCold(seed uint64) *ensembleCold {
	return &ensembleCold{common: newCommon(seed)}
}

func (e *ensembleCold) clients() int { return 1 }

func (e *ensembleCold) setUp() error {
	e.rng = rand.New(rand.NewPCG(e.seed, 0xe45e))
	e.fl = newServer(2)
	e.client = newClient(1)
	warm := ensembleSpec(e.seed ^ 0x5eed)
	jobs, err := compileJobs(warm)
	if err != nil {
		return err
	}
	e.pt = jobs[0].Scenario
	out, err := sweep(e.client, e.fl.URL, wire.SweepRequest{Spec: warm}, "")
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if out.Summary.Failed != 0 {
		return fmt.Errorf("warm-up: %d jobs failed", out.Summary.Failed)
	}
	return nil
}

func (e *ensembleCold) tearDown() {
	e.fl.Close()
	e.fl = nil
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
}

func (e *ensembleCold) op(_ int, traced bool) sample {
	spec := ensembleSpec(e.rng.Uint64())
	trace := ""
	if traced {
		trace = tracing.NewTraceID()
	}
	n := spec.Size()
	out, err := sweep(e.client, e.fl.URL, wire.SweepRequest{Spec: spec}, trace)
	s := sample{lat: out.Total, first: out.First}
	if err != nil {
		e.fail("request: %v", err)
		s.failed = n
		return s
	}
	s.failed = checkStream(&e.common, out, n)
	s.points = len(out.Lines) - s.failed
	s.simS = float64(s.points) * ensembleHorizon
	for _, l := range out.Lines {
		if l.Cached {
			s.cached++
		}
		if l.Shared {
			s.shared++
		}
	}
	if e.checks == nil {
		e.checks, e.lines = &spec, out.Lines
		e.digestLines(out.Lines)
	}
	if traced {
		e.tmu.Lock()
		e.traced = append(e.traced, tracedReq{out.ID, out.Span, len(out.Lines)})
		e.tmu.Unlock()
	}
	return s
}

// checkStream checks one sweep's stream against its summary: every
// index arrives exactly once, no line carries an error, and the
// summary's jobs, failed and cache_hits agree with the lines. It returns
// the number of bad results.
func checkStream(c *common, out sweepOut, n int) int {
	bad := 0
	seen := make([]bool, n)
	hits, errs := 0, 0
	for _, l := range out.Lines {
		if l.Index < 0 || l.Index >= n || seen[l.Index] {
			c.fail("result index %d out of range or repeated", l.Index)
			bad++
			continue
		}
		seen[l.Index] = true
		if l.Error != "" {
			c.fail("%s: %s", l.Name, l.Error)
			errs++
			bad++
		}
		if l.Cached {
			hits++
		}
	}
	missing := n - len(out.Lines)
	if missing > 0 {
		c.fail("%d of %d results missing", missing, n)
		bad += missing
	}
	sm := out.Summary
	if sm.Jobs != n || sm.Failed != errs || sm.CacheHits != hits {
		c.fail("summary jobs=%d failed=%d cache_hits=%d, lines say %d/%d/%d", sm.Jobs, sm.Failed, sm.CacheHits, n, errs, hits)
	}
	return bad
}

// check re-runs the first measured request's compiled jobs with
// batch.RunSerial and compares every result bit for bit.
func (e *ensembleCold) check() int {
	if e.checks == nil {
		e.fail("no request completed")
		return 0
	}
	jobs, err := compileJobs(*e.checks)
	if err != nil {
		e.fail("%v", err)
		return len(e.lines)
	}
	ref := batch.RunSerial(jobs, batch.Options{Cache: batch.NewCache(0)})
	bad := 0
	for _, l := range e.lines {
		want := wire.ResultOf(ref[l.Index])
		want.ElapsedUS = l.ElapsedUS
		if !sameLine(l, want) {
			e.fail("%s: served result differs from batch.RunSerial", l.Name)
			bad++
		}
	}
	return bad
}

func (e *ensembleCold) simPerS(w window) float64 { return w.sliceQuantile(0.75, sliceSimPerCPU) }

// speedup measures proposed against trap on one member of the ensemble
// request, outside the measured window.
func (e *ensembleCold) speedup() (float64, error) {
	return speedupProbe(e.point(), speedupTime)
}

func (e *ensembleCold) point() harvester.Scenario { return e.pt }

func (e *ensembleCold) traceOf() ([]wire.SpanLine, int, int, error) {
	return fetchTraces(e.client, e.fl.URL, e.traced)
}

// fetchTraces reads the service-side spans of traced requests and adds
// each request's client-side span.
func fetchTraces(c *http.Client, base string, reqs []tracedReq) ([]wire.SpanLine, int, int, error) {
	var spans []wire.SpanLine
	pts := 0
	for _, r := range reqs {
		s, err := fetchTrace(c, base, r.id)
		if err != nil {
			return nil, 0, 0, err
		}
		spans = append(spans, s...)
		spans = append(spans, r.span)
		pts += r.points
	}
	return spans, pts, len(reqs), nil
}

// compileJobs compiles a wire spec and expands it to its jobs, as a
// server does.
func compileJobs(spec wire.Spec) ([]batch.Job, error) {
	bspec, err := spec.Compile()
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	jobs, err := bspec.Jobs()
	if err != nil {
		return nil, fmt.Errorf("expand: %w", err)
	}
	return jobs, nil
}

// simS sums the simulated seconds a window delivered.
func simS(w window) float64 {
	var t float64
	for _, s := range w.samples {
		t += s.simS
	}
	return t
}
