package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"

	"harvsim/internal/harvester"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// The design grid refine_warm primes and then refines, and that the
// ladder's warm rungs read: 8 coil resistances × 8 multiplier stage
// counts over a 0.5 s charge from 2.5 V.
var (
	gridRc      = []float64{100, 180, 320, 560, 1000, 1800, 3200, 5600}
	gridStages  = []int{3, 4, 5, 6, 7, 8, 9, 10}
	gridHorizon = 0.5
)

// gridSpec is the design grid restricted to the given axis values.
func gridSpec(rc []float64, stages []int) wire.Spec {
	return wire.Spec{
		V:        wire.Version,
		Name:     "grid",
		Scenario: wire.Scenario{Kind: "charge", DurationS: gridHorizon, Set: map[string]float64{"initial_vc": 2.5}},
		Axes: []wire.Axis{
			{Kind: wire.AxisFloat, Param: "microgen.rc", Values: rc},
			{Kind: wire.AxisInt, Param: "dickson.stages", Ints: stages},
		},
	}
}

// refineClients is refine_warm's closed-loop client count.
const refineClients = 2

// keepTraced bounds how many traced requests refine_warm fetches spans
// for: the coordinator keeps only its most recent finished sweeps.
const keepTraced = 48

// refineWarm is the refine_warm workload: two clients, each on its own
// HTTP connection, to a shard coordinator in front of two single-worker
// sweep servers whose caches set-up primed with the design grid. Every
// request is a refinement sub-grid, so every job is a cache hit on the
// worker that owns it and no engine runs.
type refineWarm struct {
	common
	fl     *fleet
	client *http.Client
	ref    map[string]wire.Result // the priming sweep's lines, by name
	rngs   []*rand.Rand
	pt     harvester.Scenario // the grid's centre point
	first  bool
	tmu    sync.Mutex
	traced []tracedReq
}

func newRefineWarm(seed uint64) *refineWarm {
	return &refineWarm{common: newCommon(seed)}
}

func (r *refineWarm) clients() int { return refineClients }

func (r *refineWarm) setUp() error {
	r.rngs = make([]*rand.Rand, refineClients)
	for c := range r.rngs {
		r.rngs[c] = rand.New(rand.NewPCG(r.seed, uint64(c)+0x4ef1))
	}
	centre, err := compileJobs(gridSpec(gridRc[4:5], gridStages[4:5]))
	if err != nil {
		return err
	}
	r.pt = centre[0].Scenario
	r.fl = newCoordinator(2)
	r.client = newClient(refineClients)
	out, err := sweep(r.client, r.fl.URL, wire.SweepRequest{Spec: gridSpec(gridRc, gridStages)}, "")
	if err != nil {
		return fmt.Errorf("priming: %w", err)
	}
	n := len(gridRc) * len(gridStages)
	if len(out.Lines) != n || out.Summary.Failed != 0 {
		return fmt.Errorf("priming: %d lines, %d failed, want %d/0", len(out.Lines), out.Summary.Failed, n)
	}
	if r.ref == nil {
		r.digestLines(out.Lines)
	}
	r.ref = make(map[string]wire.Result, n)
	for _, l := range out.Lines {
		r.ref[l.Name] = l
	}
	return nil
}

func (r *refineWarm) tearDown() {
	r.fl.Close()
	r.fl = nil
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
}

// subGrid draws a refinement request: a contiguous window of 2 to 6
// values on each axis of the primed grid.
func subGrid(rng *rand.Rand) wire.Spec {
	wr, ws := 2+rng.IntN(5), 2+rng.IntN(5)
	i, j := rng.IntN(len(gridRc)-wr+1), rng.IntN(len(gridStages)-ws+1)
	return gridSpec(gridRc[i:i+wr], gridStages[j:j+ws])
}

func (r *refineWarm) op(c int, traced bool) sample {
	spec := subGrid(r.rngs[c])
	trace := ""
	if traced {
		trace = tracing.NewTraceID()
	}
	n := spec.Size()
	out, err := sweep(r.client, r.fl.URL, wire.SweepRequest{Spec: spec}, trace)
	s := sample{lat: out.Total, first: out.First}
	if err != nil {
		r.fail("request: %v", err)
		s.failed = n
		return s
	}
	s.failed = checkStream(&r.common, out, n)
	if sm := out.Summary; sm.LostWorkers != 0 || sm.Resharded != 0 || sm.Retries != 0 {
		r.fail("fleet faults: lost_workers=%d resharded=%d retries=%d", sm.LostWorkers, sm.Resharded, sm.Retries)
		r.tmu.Lock()
		r.faults[0] += sm.Retries
		r.faults[1] += sm.Resharded
		r.faults[2] += sm.LostWorkers
		r.tmu.Unlock()
	}
	for _, l := range out.Lines {
		want, ok := r.ref[l.Name]
		want.Index, want.Cached, want.ElapsedUS = l.Index, true, l.ElapsedUS
		if !ok || !l.Cached || !sameLine(l, want) {
			r.fail("%s: not a cache hit bit-identical to the priming sweep", l.Name)
			s.failed++
		}
		if l.Cached {
			s.cached++
		}
		if l.Shared {
			s.shared++
		}
	}
	s.failed = min(s.failed, n)
	s.points = len(out.Lines) - min(s.failed, len(out.Lines))
	s.simS = float64(s.points) * gridHorizon
	if c == 0 {
		r.tmu.Lock()
		if !r.first {
			r.first = true
			r.digestLines(out.Lines)
		}
		r.tmu.Unlock()
	}
	if traced {
		r.tmu.Lock()
		r.traced = append(r.traced, tracedReq{out.ID, out.Span, len(out.Lines)})
		r.tmu.Unlock()
	}
	return s
}

func (r *refineWarm) check() int { return 0 }

// simPerS counts the simulated seconds the delivered (cache-served)
// results stand for: no engine runs on this workload.
func (r *refineWarm) simPerS(w window) float64 { return w.sliceQuantile(0.75, sliceSimPerCPU) }

// speedup measures proposed against trap on the grid's centre point,
// outside the measured window.
func (r *refineWarm) speedup() (float64, error) { return speedupProbe(r.point(), speedupTime) }

func (r *refineWarm) point() harvester.Scenario { return r.pt }

// traceOf fetches the spans of the most recent traced requests, which
// the coordinator still holds, with the worker spans it imported.
func (r *refineWarm) traceOf() ([]wire.SpanLine, int, int, error) {
	reqs := r.traced
	if len(reqs) > keepTraced {
		reqs = reqs[len(reqs)-keepTraced:]
	}
	return fetchTraces(r.client, r.fl.URL, reqs)
}
