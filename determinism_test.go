package harvsim

// Determinism suite for the stochastic workload: the whole value of a
// seeded noise realisation is that it is NOT random at execution time —
// the same Scenario must produce bit-identical results no matter how it
// is executed (serially, across the worker pool with per-worker
// workspace recycling, or on a Reset/Released harvester), because the
// batch layer's result ordering, the conformance suite and any future
// result cache all assume a run is a pure function of its job.

import (
	"context"
	"testing"
)

// nonlinearStochasticScenario is the shared workload: Duffing spring
// under seeded band-limited noise, every new code path active.
func nonlinearStochasticScenario() Scenario {
	sc := NoiseScenario(1.0, 55, 85, 42)
	sc.Cfg.Microgen.K3 = 1e9
	return sc
}

func sameResult(t *testing.T, label string, a, b BatchResult) {
	t.Helper()
	if a.Err != nil || b.Err != nil {
		t.Fatalf("%s: run failed: %v / %v", label, a.Err, b.Err)
	}
	if a.FinalVc != b.FinalVc {
		t.Errorf("%s: FinalVc %v vs %v", label, a.FinalVc, b.FinalVc)
	}
	if a.RMSPower != b.RMSPower {
		t.Errorf("%s: RMSPower %v vs %v", label, a.RMSPower, b.RMSPower)
	}
	if a.Energy != b.Energy {
		t.Errorf("%s: Energy %+v vs %+v", label, a.Energy, b.Energy)
	}
	if len(a.FinalState) != len(b.FinalState) {
		t.Fatalf("%s: state length %d vs %d", label, len(a.FinalState), len(b.FinalState))
	}
	for i := range a.FinalState {
		if a.FinalState[i] != b.FinalState[i] {
			t.Errorf("%s: state[%d] %v vs %v", label, i, a.FinalState[i], b.FinalState[i])
		}
	}
}

// TestNoiseDeterminismAcrossExecutionModes runs the same seeded
// nonlinear/stochastic job serially, through the concurrent pool (with
// workspace reuse), and through the pool with reuse disabled, and
// requires all three bit-identical.
func TestNoiseDeterminismAcrossExecutionModes(t *testing.T) {
	sc := nonlinearStochasticScenario()
	jobs := make([]BatchJob, 4)
	for i := range jobs {
		jobs[i] = BatchJob{Name: "det", Scenario: sc.Clone(), Engine: Proposed, Decimate: 1}
	}
	serial := RunBatch(context.Background(), jobs[:1], BatchOptions{Workers: 1})
	pooled := RunBatch(context.Background(), jobs, BatchOptions{Workers: 4})
	noReuse := RunBatch(context.Background(), jobs[:1], BatchOptions{NoWorkspaceReuse: true})
	for _, r := range pooled {
		sameResult(t, "serial vs pooled", serial[0], r)
	}
	sameResult(t, "serial vs no-reuse", serial[0], noReuse[0])
}

// TestNoiseDeterminismAcrossWorkspaceReuse pins the Release/re-acquire
// path: a second assembly of the same scenario on a recycled (dirty)
// workspace must reproduce the first run bit for bit, noise realisation
// included.
func TestNoiseDeterminismAcrossWorkspaceReuse(t *testing.T) {
	sc := nonlinearStochasticScenario()
	pool := NewWorkspacePool()

	run := func() (float64, []float64) {
		h, err := AssembleWith(sc, pool)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := h.Run(Proposed, sc.Duration, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, vc := h.VcTrace.Last()
		state := append([]float64(nil), eng.State()...)
		h.Release()
		return vc, state
	}
	vc1, st1 := run()
	vc2, st2 := run()
	if vc1 != vc2 {
		t.Errorf("recycled-workspace rerun drifted: Vc %v vs %v", vc1, vc2)
	}
	for i := range st1 {
		if st1[i] != st2[i] {
			t.Errorf("recycled-workspace rerun state[%d]: %v vs %v", i, st1[i], st2[i])
		}
	}
}

// TestNoiseSeedsDistinctThroughBatch pins, at the facade level, that
// different seeds are different workloads: the settled-window power of
// two realisations differs well beyond the bit-noise level. (The run is
// deterministic, so the threshold cannot flake.)
func TestNoiseSeedsDistinctThroughBatch(t *testing.T) {
	mk := func(seed uint64) BatchJob {
		sc := NoiseScenario(1.5, 55, 85, seed)
		return BatchJob{Scenario: sc, Engine: Proposed}
	}
	results := RunBatch(context.Background(),
		[]BatchJob{mk(1), mk(2)}, BatchOptions{})
	a, b := results[0], results[1]
	if a.Err != nil || b.Err != nil {
		t.Fatalf("runs failed: %v / %v", a.Err, b.Err)
	}
	lo, hi := a.RMSPower, b.RMSPower
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi <= 0 || (hi-lo)/hi < 0.05 {
		t.Fatalf("seeds 1 and 2 statistically indistinct: RMS power %v vs %v",
			a.RMSPower, b.RMSPower)
	}
}

// sameMember extends sameResult to everything an ensemble reduction
// consumes from a member: the EngineStats counters (the march must be
// the same march, not just land on the same answer) and the basin
// accounting.
func sameMember(t *testing.T, label string, a, b BatchResult) {
	t.Helper()
	sameResult(t, label, a, b)
	if a.Stats != b.Stats {
		t.Errorf("%s: EngineStats differ:\n  %+v\n  %+v", label, a.Stats, b.Stats)
	}
	if a.Transits != b.Transits || a.SettledTransits != b.SettledTransits ||
		a.FinalBasin != b.FinalBasin {
		t.Errorf("%s: basin accounting differs: (%d,%d,%+d) vs (%d,%d,%+d)", label,
			a.Transits, a.SettledTransits, a.FinalBasin,
			b.Transits, b.SettledTransits, b.FinalBasin)
	}
}

// bistableEnsembleJobs builds one double-well design point's seed
// ensemble, with coupling corrections active so every new bistable code
// path (K1, K3, Xi1/Xi2, Z0, basin observer) is exercised.
func bistableEnsembleJobs(k int, kind EngineKind, duration float64) []BatchJob {
	jobs := make([]BatchJob, k)
	for i, seed := range Seeds(13, k) {
		sc := BistableScenario(duration, BistableWellM, BistableBarrierJ, 120, -3.4e4, 8, 40, seed)
		jobs[i] = BatchJob{
			Name: "bistable-ens", Group: "bi", Seed: seed,
			Scenario: sc, Engine: kind, Decimate: 1,
		}
	}
	return jobs
}

// TestEnsembleReductionInvariantAcrossDispatch: the Ensembles reduction
// of a seed sweep, and every member result it reduces, is identical
// between serial execution and the pool — the statistics are computed
// in job order over bit-identical member results, so the dispatch
// cannot show through.
func TestEnsembleReductionInvariantAcrossDispatch(t *testing.T) {
	// One Duffing design point's seed ensemble: 4 jobs sharing a Group,
	// differing only in realisation seed.
	jobs := make([]BatchJob, 4)
	for i, seed := range Seeds(11, len(jobs)) {
		sc := NoiseScenario(0.4, 55, 85, seed)
		sc.Cfg.Microgen.K3 = 1e9
		jobs[i] = BatchJob{
			Name: "noise-ens", Group: "pt", Seed: seed,
			Scenario: sc, Engine: Proposed, Decimate: 1,
		}
	}
	serial := RunBatchSerial(jobs, BatchOptions{})
	pooled := RunBatch(context.Background(), jobs, BatchOptions{Workers: 4})
	for i := range jobs {
		sameMember(t, "member", serial[i], pooled[i])
	}
	ref, points := Ensembles(serial), Ensembles(pooled)
	if len(points) != len(ref) {
		t.Fatalf("pooled: %d points, want %d", len(points), len(ref))
	}
	for i := range ref {
		a, b := ref[i], points[i]
		if a.Group != b.Group || a.N != b.N || a.Failed != b.Failed ||
			a.Mean != b.Mean || a.Variance != b.Variance || a.CI95 != b.CI95 ||
			a.MeanVc != b.MeanVc {
			t.Errorf("pooled: point %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestBistableBasinReductionInvariantAcrossDispatch: the basin-aware
// ensemble reductions — high-orbit fraction, mean transit count and the
// per-basin statistics — and the member results they reduce are
// identical between serial and pooled execution on every engine kind,
// exactly like the Student-t statistics they ride alongside. This
// requires the basin observer's settle boundary to be part of the job
// identity, not an artifact of how the run was scheduled.
func TestBistableBasinReductionInvariantAcrossDispatch(t *testing.T) {
	for _, kind := range []EngineKind{Proposed, ExistingTrap, ExistingBDF2, ExistingBE} {
		dur := 0.8
		if kind != Proposed {
			dur = 0.15 // the implicit baselines are much slower
		}
		label := kind.String()
		jobs := bistableEnsembleJobs(4, kind, dur)
		serial := RunBatchSerial(jobs, BatchOptions{})
		pooled := RunBatch(context.Background(), jobs, BatchOptions{Workers: 4})
		for i := range jobs {
			sameMember(t, label, serial[i], pooled[i])
		}
		ref, points := Ensembles(serial), Ensembles(pooled)
		if len(ref) != 1 || len(points) != 1 {
			t.Fatalf("%s: %d / %d ensemble points, want 1", label, len(ref), len(points))
		}
		if len(ref[0].Basins) == 0 {
			t.Fatalf("%s: reference reduction carries no basin statistics — workload not bistable?", label)
		}
		a, b := ref[0], points[0]
		if a.HighOrbitFrac != b.HighOrbitFrac || a.MeanTransits != b.MeanTransits {
			t.Errorf("%s: orbit stats differ: (%v, %v) vs (%v, %v)",
				label, a.HighOrbitFrac, a.MeanTransits, b.HighOrbitFrac, b.MeanTransits)
		}
		if len(a.Basins) != len(b.Basins) {
			t.Fatalf("%s: basin counts differ: %d vs %d", label, len(a.Basins), len(b.Basins))
		}
		for j := range a.Basins {
			if a.Basins[j] != b.Basins[j] {
				t.Errorf("%s: basin %d differs: %+v vs %+v", label, j, a.Basins[j], b.Basins[j])
			}
		}
	}
}
