package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/core"
	"harvsim/internal/harvester"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// Repetition counts of the ladder's probes.
const (
	warmSteps   = 2000 // engine steps per warm-step sample
	stepSamples = 9
	accelCalls  = 20000
	assembleN   = 200
	ladderReps  = 3  // cold runs per rung
	warmSweeps  = 20 // warm grid sweeps per service rung
	encodeReps  = 50

	speedupTime = 3 * time.Second // speedup probe of the service workloads
)

// accelSink keeps the timed excitation calls from being optimised away.
var accelSink float64

// mallocs runs f and returns the heap allocations it made.
func mallocs(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// timeIt runs f n times and returns each duration.
func timeIt(n int, f func() error) ([]time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		ds[i] = time.Since(t0)
	}
	return ds, nil
}

// runJob runs one job as paper_tables does: a single-job RunSerial on a
// fresh cache.
func runJob(sc harvester.Scenario, kind harvester.EngineKind, opt batch.Options) (batch.Result, error) {
	opt.Cache = batch.NewCache(0)
	res := batch.RunSerial([]batch.Job{{Scenario: sc.Clone(), Engine: kind, Decimate: 1 << 20}}, opt)[0]
	if res.Err != nil {
		return res, fmt.Errorf("%s under %v: %w", sc.Name, kind, res.Err)
	}
	return res, nil
}

// speedupProbe runs one design point under the proposed engine and the
// trapezoidal baseline alternately for about d, and returns the total
// trap CPU time over the total proposed CPU time. Alternating runs see
// the same mix of host contention, which a ratio of sums then cancels.
func speedupProbe(sc harvester.Scenario, d time.Duration) (float64, error) {
	var prop, trap time.Duration
	for end := time.Now().Add(d); prop == 0 || time.Now().Before(end); {
		for _, kind := range []harvester.EngineKind{harvester.Proposed, harvester.ExistingTrap} {
			c0 := processCPU()
			if _, err := runJob(sc, kind, batch.Options{}); err != nil {
				return 0, err
			}
			if kind == harvester.Proposed {
				prop += processCPU() - c0
			} else {
				trap += processCPU() - c0
			}
		}
	}
	return trap.Seconds() / prop.Seconds(), nil
}

// ladder holds the per-layer probes of one design point plus the warm
// rungs over the design grid.
type ladder struct {
	m   map[string]float64
	srv *spanTree // a traced warm sweep against one server
	crd *spanTree // a traced warm sweep through the coordinator
	// rungs, in blocking order, for the printed ladder
	stepNS, runMS, jobMS, hitUS, serverMS, coordMS, trapMS, soloMS, lockMS, directMS float64
	faults                                                                           [3]int
}

// runLadder measures every layer from outside, by timing calls into its
// public functions, on the design point sc.
func runLadder(sc harvester.Scenario, seed uint64) (*ladder, error) {
	l := &ladder{m: map[string]float64{}}
	steps := []func(*ladder, harvester.Scenario, uint64) error{
		(*ladder).engine, (*ladder).runs, (*ladder).lockstep, (*ladder).warm,
	}
	for _, f := range steps {
		if err := f(l, sc, seed); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// engine times warm proposed steps, excitation evaluation and assembly.
func (l *ladder) engine(sc harvester.Scenario, _ uint64) error {
	long := sc.Clone()
	long.Duration = 1e9 // far beyond any step count below
	h, err := harvester.Assemble(long)
	if err != nil {
		return err
	}
	eng, ok := h.NewEngine(harvester.Proposed, 1<<20).(*core.Engine)
	if !ok {
		return fmt.Errorf("proposed engine is not a core.Engine")
	}
	if err := eng.Begin(0, long.Duration); err != nil {
		return err
	}
	step := func() error {
		for i := 0; i < warmSteps; i++ {
			if _, err := eng.Step(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := step(); err != nil { // warm-up
		return err
	}
	allocs := mallocs(func() { err = step() })
	if err != nil {
		return err
	}
	l.m["core.allocs_per_step"] = float64(allocs) / warmSteps
	ds, err := timeIt(stepSamples, step)
	if err != nil {
		return err
	}
	l.stepNS = medianMS(ds) * 1e6 / warmSteps
	l.m["core.step_ns"] = l.stepNS

	var sum float64
	t0 := time.Now()
	for i := 0; i < accelCalls; i++ {
		sum += h.Vib.Accel(float64(i) * 1e-5)
	}
	l.m["blocks.accel_ns"] = float64(time.Since(t0).Nanoseconds()) / accelCalls
	accelSink = sum

	pool := core.NewWorkspacePool()
	assemble := func() error {
		h, err := harvester.AssembleWith(sc, pool)
		if err != nil {
			return err
		}
		h.Release()
		return nil
	}
	if err := assemble(); err != nil {
		return err
	}
	ds, err = timeIt(assembleN, assemble)
	if err != nil {
		return err
	}
	l.m["harvester.assemble_us"] = medianMS(ds) * 1e3
	return nil
}

// runs times RunScenario under both engines and one traced batch job,
// and reads the engine counters.
func (l *ladder) runs(sc harvester.Scenario, _ uint64) error {
	T := sc.Duration
	var st [2]batch.EngineStats
	for k, kind := range []harvester.EngineKind{harvester.Proposed, harvester.ExistingTrap} {
		ds, err := timeIt(ladderReps, func() error {
			_, eng, err := harvester.RunScenario(sc, kind, 1<<20)
			if err == nil {
				st[k] = batch.StatsOf(eng)
			}
			return err
		})
		if err != nil {
			return err
		}
		if k == 0 {
			l.runMS = medianMS(ds)
		} else {
			l.trapMS = medianMS(ds)
		}
	}
	p, t := st[0], st[1]
	l.m["harvester.run_ms_per_sim_s"] = l.runMS / T
	l.m["core.steps_per_sim_s"] = float64(p.Steps) / T
	l.m["core.rejected_per_sim_s"] = float64(p.Rejected) / T
	l.m["core.refactors_per_sim_s"] = float64(p.Refactors) / T
	l.m["core.stability_per_sim_s"] = float64(p.StabilityRecomputes) / T
	l.m["core.solves_per_step"] = float64(p.Solves) / float64(max(p.Steps, 1))
	l.m["implicit.trap_ms_per_sim_s"] = l.trapMS / T
	l.m["implicit.newton_iters_per_step"] = float64(t.Solves) / float64(max(t.Steps, 1))
	l.m["implicit.lu_factors_per_sim_s"] = float64(t.Refactors) / T

	var spans []wire.SpanLine
	ds, err := timeIt(ladderReps, func() error {
		rec := tracing.New("", 0)
		_, err := runJob(sc, harvester.Proposed, batch.Options{Trace: rec})
		got, _ := rec.Snapshot(0)
		for _, s := range got {
			spans = append(spans, wire.SpanLineOf(s))
		}
		return err
	})
	if err != nil {
		return err
	}
	l.jobMS = medianMS(ds)
	tree := newSpanTree(spans)
	perSimS := func(layer string) float64 {
		return mean(tree.durs(layer)) / 1e3 / T
	}
	l.m["batch.march_ms_per_sim_s"] = perSimS(batch.PhaseMarch)
	l.m["core.factor_ms_per_sim_s"] = perSimS(batch.PhaseFactor)
	l.m["core.stability_ms_per_sim_s"] = perSimS(batch.PhaseStability)
	var runErr error
	allocs := mallocs(func() { _, runErr = runJob(sc, harvester.Proposed, batch.Options{}) })
	l.m["batch.allocs_per_job"] = float64(allocs)
	return runErr
}

// lockstep runs one design point's ensemble_cold seed members solo and
// as one lockstep unit.
func (l *ladder) lockstep(_ harvester.Scenario, seed uint64) error {
	jobs, err := compileJobs(ensembleSpec(seed))
	if err != nil {
		return err
	}
	jobs = jobs[:ensembleK] // the first design point's members
	run := func(opt batch.Options) (time.Duration, uint64, error) {
		var d time.Duration
		var res []batch.Result
		allocs := mallocs(func() {
			t0 := time.Now()
			res = batch.RunSerial(jobs, opt)
			d = time.Since(t0)
		})
		for _, r := range res {
			if r.Err != nil {
				return 0, 0, fmt.Errorf("lockstep rung: %w", r.Err)
			}
		}
		return d, allocs, nil
	}
	solo, _, err := run(batch.Options{NoLockstep: true})
	if err != nil {
		return err
	}
	lock, allocs, err := run(batch.Options{})
	if err != nil {
		return err
	}
	l.soloMS, l.lockMS = ms([]time.Duration{solo})[0], ms([]time.Duration{lock})[0]
	l.m["batch.lockstep_gain"] = l.soloMS / l.lockMS
	l.m["batch.allocs_per_member"] = float64(allocs) / ensembleK
	return nil
}

// warm times warm reads of the design grid: a direct batch.Run on a
// primed cache, one server, and the coordinator over two workers.
func (l *ladder) warm(_ harvester.Scenario, _ uint64) error {
	spec := gridSpec(gridRc, gridStages)
	jobs, err := compileJobs(spec)
	if err != nil {
		return err
	}
	cache := batch.NewCache(0)
	var warm []batch.Result
	direct := func() error {
		warm = batch.Run(context.Background(), jobs, batch.Options{Cache: cache})
		for _, r := range warm {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	if err := direct(); err != nil {
		return err
	}
	ds, err := timeIt(warmSweeps, direct)
	if err != nil {
		return err
	}
	l.directMS = medianMS(ds)
	l.hitUS = l.directMS * 1e3 / float64(len(jobs))
	l.m["batch.direct_warm_ms"] = l.directMS

	var bytes int
	ds, err = timeIt(encodeReps, func() error {
		bytes = 0
		for _, r := range warm {
			b, err := json.Marshal(wire.ResultOf(r))
			if err != nil {
				return err
			}
			bytes += len(b) + 1
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["wire.encode_us_per_line"] = medianMS(ds) * 1e3 / float64(len(warm))
	l.m["wire.bytes_per_line"] = float64(bytes) / float64(len(warm))

	service := func(f *fleet) (float64, *spanTree, error) {
		defer f.Close()
		c := newClient(1)
		defer c.CloseIdleConnections()
		req := wire.SweepRequest{Spec: spec}
		if _, err := sweep(c, f.URL, req, ""); err != nil {
			return 0, nil, err
		}
		ds, err := timeIt(warmSweeps, func() error {
			out, err := sweep(c, f.URL, req, "")
			if err == nil && out.Summary.CacheHits != len(jobs) {
				err = fmt.Errorf("warm sweep: %d of %d cache hits", out.Summary.CacheHits, len(jobs))
			}
			l.faults[0] += out.Summary.Retries
			l.faults[1] += out.Summary.Resharded
			l.faults[2] += out.Summary.LostWorkers
			return err
		})
		if err != nil {
			return 0, nil, err
		}
		out, err := sweep(c, f.URL, req, tracing.NewTraceID())
		if err != nil {
			return 0, nil, err
		}
		spans, err := fetchTrace(c, f.URL, out.ID)
		if err != nil {
			return 0, nil, err
		}
		return medianMS(ds), newSpanTree(append(spans, out.Span)), nil
	}
	if l.serverMS, l.srv, err = service(newServer(2)); err != nil {
		return fmt.Errorf("server rung: %w", err)
	}
	if l.coordMS, l.crd, err = service(newCoordinator(2)); err != nil {
		return fmt.Errorf("coordinator rung: %w", err)
	}
	l.m["server.warm_over_direct"] = l.serverMS / l.directMS
	l.m["shard.coord_over_server"] = l.coordMS / l.serverMS
	return nil
}

// print writes the attribution ladder and the ratio pairs.
func (l *ladder) print(w io.Writer, T float64) {
	fmt.Fprintf(w, "# ladder (each rung wraps the one before it)\n")
	fmt.Fprintf(w, "#   %-44s %12.4g ns\n", "warm step (core.Engine.Step)", l.stepNS)
	fmt.Fprintf(w, "#   %-44s %12.4g ms\n", fmt.Sprintf("RunScenario, %.3g s simulated", T), l.runMS)
	fmt.Fprintf(w, "#   %-44s %12.4g ms\n", "batch job (RunSerial, fresh cache)", l.jobMS)
	fmt.Fprintf(w, "#   %-44s %12.4g us\n", "warm cache hit (batch.Run, per job)", l.hitUS)
	fmt.Fprintf(w, "#   %-44s %12.4g ms\n", "direct warm grid (batch.Run, 64 jobs)", l.directMS)
	fmt.Fprintf(w, "#   %-44s %12.4g ms\n", "server warm grid (HTTP, 64 jobs)", l.serverMS)
	fmt.Fprintf(w, "#   %-44s %12.4g ms\n", "coordinator warm grid (2 workers, 64 jobs)", l.coordMS)
	fmt.Fprintf(w, "# ratio pairs (numerator / base)\n")
	fmt.Fprintf(w, "#   trap / proposed (RunScenario)          %8.3f\n", l.trapMS/l.runMS)
	fmt.Fprintf(w, "#   solo / lockstep (8 seed members)        %8.3f\n", l.soloMS/l.lockMS)
	fmt.Fprintf(w, "#   server warm / direct warm (64 jobs)     %8.3f\n", l.serverMS/l.directMS)
	fmt.Fprintf(w, "#   coordinator warm / server warm (64 jobs) %7.3f\n", l.coordMS/l.serverMS)
}
