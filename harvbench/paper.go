package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/harvester"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// Bench horizons of the paper_tables cycle: the Table I charge-up and the
// Table II scenario-1 retune, as the repository's go test benchmarks run
// them.
const (
	table1Horizon = 2.0
	table2Horizon = 30.0
)

// Final-Vc tolerances between the proposed engine and the trapezoidal
// baseline: the values the cross-engine conformance suite applies to the
// charge run (1 mV) and to the scenario-1 retune (2 mV).
const (
	table1VcTol = 1e-3
	table2VcTol = 2e-3
)

// paperRun is one run of a paper_tables cycle.
type paperRun struct {
	label string
	job   batch.Job
	vcTol float64 // trap runs: bound on |Vc(trap) - Vc(proposed)|
}

// paperTables is the paper_tables workload: one client cycling through
// Table I and Table II scenario 1, each under the proposed engine and
// then the trapezoidal Newton baseline. Every run is a single-job
// batch.RunSerial with a fresh result cache: one miss plus one write.
type paperTables struct {
	common
	runs  []paperRun
	ref   []batch.Result    // the first measured cycle
	cpu   [][]time.Duration // per run of the cycle, the process CPU time of every measured run
	spans []wire.SpanLine
	ops   int
	pts   int
}

func newPaperTables(seed uint64) *paperTables {
	return &paperTables{common: newCommon(seed)}
}

func (p *paperTables) clients() int { return 1 }

// setUp builds the cycle from the seed, which scales the ambient
// vibration amplitude of both scenarios by a factor within ±1%, and
// warms up on the Table I pair.
func (p *paperTables) setUp() error {
	rng := rand.New(rand.NewPCG(p.seed, 0x7ab1e5))
	scale := 1 + (rng.Float64()*2-1)*0.01
	t1 := harvester.ChargeScenario(table1Horizon)
	t1.Cfg.VibAmplitude *= scale
	t2 := harvester.Scenario1(harvester.Quick)
	t2.Duration = table2Horizon
	t2.Cfg.VibAmplitude *= scale
	job := func(sc harvester.Scenario, kind harvester.EngineKind, dec int) batch.Job {
		return batch.Job{Name: sc.Name + "/" + wire.EngineName(kind), Scenario: sc.Clone(), Engine: kind, Decimate: dec}
	}
	// Table II runs first: its proposed run, the cycle's first result, is
	// long enough to average over the host's short bursts of contention.
	p.runs = []paperRun{
		{"table2/proposed", job(t2, harvester.Proposed, 1024), 0},
		{"table2/trap", job(t2, harvester.ExistingTrap, 1024), table2VcTol},
		{"table1/proposed", job(t1, harvester.Proposed, 1<<20), 0},
		{"table1/trap", job(t1, harvester.ExistingTrap, 1<<20), table1VcTol},
	}
	p.cpu = make([][]time.Duration, len(p.runs))
	for _, r := range p.runs[2:] {
		res := batch.RunSerial([]batch.Job{r.job}, batch.Options{Cache: batch.NewCache(0)})
		if res[0].Err != nil {
			return fmt.Errorf("warm-up %s: %w", r.label, res[0].Err)
		}
	}
	return nil
}

func (p *paperTables) tearDown() {}

// op runs one cycle: the four runs in order.
func (p *paperTables) op(_ int, traced bool) sample {
	var s sample
	start := time.Now()
	var cycle *tracing.Active
	var rec *tracing.Recorder
	if traced {
		rec = tracing.New("", 0)
		cycle = rec.Start("cycle", "")
	}
	results := make([]batch.Result, len(p.runs))
	for i, r := range p.runs {
		opt := batch.Options{Cache: batch.NewCache(0)}
		var span *tracing.Active
		if traced {
			span = rec.Start("run", cycle.ID())
			opt.Trace, opt.TraceParent = rec, span.ID()
		}
		c0 := processCPU()
		res := batch.RunSerial([]batch.Job{r.job}, opt)[0]
		p.cpu[i] = append(p.cpu[i], processCPU()-c0)
		span.End()
		if i == 0 {
			s.first = time.Since(start)
		}
		results[i] = res
		if !p.correct(i, res, results) {
			s.failed++
			continue
		}
		s.points++
		if r.job.Engine == harvester.Proposed {
			s.simS += r.job.Scenario.Duration
		}
		if res.Cached {
			s.cached++
		}
	}
	s.lat = time.Since(start)
	if traced {
		cycle.End()
		spans, _ := rec.Snapshot(0)
		for _, sp := range spans {
			p.spans = append(p.spans, wire.SpanLineOf(sp))
		}
		p.ops++
		p.pts += s.points
	}
	if p.ref == nil && s.failed == 0 {
		p.ref = results
		for _, r := range results {
			p.digestLine(wire.ResultOf(r))
		}
	}
	return s
}

// correct checks run i of a cycle: no error, a fresh simulation, final
// Vc within the conformance tolerance of the proposed run for trap runs,
// and bit-identical to the first measured cycle.
func (p *paperTables) correct(i int, res batch.Result, cycle []batch.Result) bool {
	r := p.runs[i]
	switch {
	case res.Err != nil:
		p.fail("%s: %v", r.label, res.Err)
		return false
	case res.Cached:
		p.fail("%s: served from a fresh cache", r.label)
		return false
	}
	if r.vcTol > 0 {
		if d := math.Abs(res.FinalVc - cycle[i-1].FinalVc); !(d <= r.vcTol) {
			p.fail("%s: final Vc %.6g V is %.3g V from the proposed run (tolerance %.3g V)", r.label, res.FinalVc, d, r.vcTol)
			return false
		}
	}
	if p.ref != nil && !sameResult(res, p.ref[i]) {
		p.fail("%s: result differs from the first cycle", r.label)
		return false
	}
	return true
}

// sameResult reports whether two batch results carry bit-identical
// physics, final state included.
func sameResult(a, b batch.Result) bool {
	if !sameLine(wire.ResultOf(a), wire.ResultOf(b)) || len(a.FinalState) != len(b.FinalState) {
		return false
	}
	for i := range a.FinalState {
		if math.Float64bits(a.FinalState[i]) != math.Float64bits(b.FinalState[i]) {
			return false
		}
	}
	return true
}

func medianMS(ds []time.Duration) float64 { return median(ms(ds)) }

// total sums durations.
func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// simPerS is the proposed engine's simulated seconds per CPU second in
// the faster quartile of the measured cycles.
func (p *paperTables) simPerS(window) float64 {
	rates := make([]float64, len(p.cpu[0]))
	for i := range rates {
		rates[i] = (table1Horizon + table2Horizon) / (p.cpu[0][i] + p.cpu[2][i]).Seconds()
	}
	return quantile(rates, 0.75)
}

// speedup is the geometric mean over Table II and Table I of the total
// trap CPU time over the total proposed CPU time. Each trap run follows
// its proposed run, so both sides see the same mix of host contention.
func (p *paperTables) speedup() (float64, error) {
	r2 := total(p.cpu[1]).Seconds() / total(p.cpu[0]).Seconds()
	r1 := total(p.cpu[3]).Seconds() / total(p.cpu[2]).Seconds()
	return math.Sqrt(r1 * r2), nil
}

func (p *paperTables) check() int { return 0 }

func (p *paperTables) point() harvester.Scenario { return p.runs[2].job.Scenario }

func (p *paperTables) traceOf() ([]wire.SpanLine, int, int, error) {
	return p.spans, p.pts, p.ops, nil
}
