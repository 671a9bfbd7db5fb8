package harvester

import (
	"math"
	"reflect"
	"testing"

	"harvsim/internal/core"
	"harvsim/internal/trace"
)

// TestBistableScenarioDerivation pins the well-geometry inversion: the
// scenario constructor must produce spring coefficients whose derived
// geometry round-trips to the requested well displacement and barrier
// height, with the in-well resonance where the stiffness formula puts
// it and the tuning force parked so the stamp is exactly Ks+K1.
func TestBistableScenarioDerivation(t *testing.T) {
	const wellM, barrierJ = 5e-4, 2e-6
	sc := BistableScenario(2, wellM, barrierJ, 120, -3.4e4, 8, 40, 7)
	mg := sc.Cfg.Microgen
	if !mg.Bistable() {
		t.Fatal("BistableScenario produced a monostable device")
	}
	if wz := mg.WellZ(); math.Abs(wz-wellM) > 1e-12*wellM {
		t.Errorf("WellZ round-trip: got %g, want %g", wz, wellM)
	}
	if bj := mg.BarrierJ(); math.Abs(bj-barrierJ) > 1e-12*barrierJ {
		t.Errorf("BarrierJ round-trip: got %g, want %g", bj, barrierJ)
	}
	wantHz := math.Sqrt(-2*(mg.Ks+mg.K1)/mg.M) / (2 * math.Pi)
	if hz := mg.InWellHz(); math.Abs(hz-wantHz) > 1e-9 {
		t.Errorf("InWellHz: got %g, want %g", hz, wantHz)
	}
	if hz := mg.InWellHz(); hz < 10 || hz > 30 {
		t.Errorf("calibrated in-well resonance %g Hz outside the 10..30 Hz design band", hz)
	}
	if mg.Z0 != -wellM {
		t.Errorf("Z0 = %g, want the negative well %g", mg.Z0, -wellM)
	}
	if sc.Cfg.InitialTuneHz != mg.UntunedHz() {
		t.Errorf("tuning not parked: InitialTuneHz %g, untuned %g",
			sc.Cfg.InitialTuneHz, mg.UntunedHz())
	}
	if mg.Xi1 != 120 || mg.Xi2 != -3.4e4 {
		t.Errorf("coupling corrections not threaded: Xi1=%g Xi2=%g", mg.Xi1, mg.Xi2)
	}
}

// TestBistableScenarioDegeneratesToNoise: with zero well geometry the
// bistable constructor is NoiseScenario with a different label — same
// config struct, same physics hash, so the cache treats them as one
// scenario.
func TestBistableScenarioDegeneratesToNoise(t *testing.T) {
	bi := BistableScenario(1.5, 0, 0, 0, 0, 55, 85, 9)
	ns := NoiseScenario(1.5, 55, 85, 9)
	if bi.Name == ns.Name {
		t.Error("degenerate bistable scenario should keep its own label")
	}
	bi.Name = ns.Name
	if !reflect.DeepEqual(bi, ns) {
		t.Errorf("degenerate bistable scenario differs from NoiseScenario beyond the name:\n%+v\nvs\n%+v", bi, ns)
	}
	if scenarioHash(bi) != scenarioHash(ns) {
		t.Error("degenerate bistable scenario hashes differently from NoiseScenario")
	}
}

// TestBasinObserverHysteresis unit-tests the classifier against
// hand-fed displacements: the ±WellZ/2 hysteresis band, transit
// counting only on full side flips, the settled-window boundary, and
// the monostable fast path.
func TestBasinObserverHysteresis(t *testing.T) {
	h, err := Assemble(BistableScenario(10, BistableWellM, BistableBarrierJ, 0, 0, 8, 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	thr := h.Cfg.Microgen.WellZ() / 2
	if thr <= 0 {
		t.Fatal("no hysteresis threshold on a bistable device")
	}
	h.SetBasinSettle(1.0)

	check := func(label string, want BasinStats) {
		t.Helper()
		if got := h.BasinStats(); got != want {
			t.Fatalf("%s: stats %+v, want %+v", label, got, want)
		}
	}
	check("initial (started in -well)", BasinStats{FinalBasin: -1})

	// Excursions inside the hysteresis band never count.
	for _, z := range []float64{0, 0.99 * thr, -0.99 * thr, 0.5 * thr} {
		h.observeBasin(0.1, z)
	}
	check("sub-threshold excursions", BasinStats{FinalBasin: -1})

	// Full crossing before the settle boundary: a transit, not settled.
	h.observeBasin(0.2, thr)
	check("early crossing to +well", BasinStats{Transits: 1, FinalBasin: 1})

	// Re-entering the band and returning to the same side is not a transit.
	h.observeBasin(0.3, 0.2*thr)
	h.observeBasin(0.4, thr)
	check("band re-entry, same side", BasinStats{Transits: 1, FinalBasin: 1})

	// Crossing after the settle boundary counts as settled.
	h.observeBasin(1.5, -thr)
	check("settled crossing to -well", BasinStats{Transits: 2, SettledTransits: 1, FinalBasin: -1})

	// Reset restarts the classifier from the configured initial basin and
	// clears the explicit settle boundary.
	h.Reset()
	check("after Reset", BasinStats{FinalBasin: -1})
}

// TestBasinObserverMonostableOff: a monostable device has a zero
// threshold, so the observer is inert no matter the excursion — the
// counting cost is a single compare on every accepted step.
func TestBasinObserverMonostableOff(t *testing.T) {
	h, err := Assemble(NoiseScenario(10, 55, 85, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for _, z := range []float64{-1, -1e-3, 0, 1e-3, 1} {
		h.observeBasin(5, z)
	}
	if got := h.BasinStats(); got != (BasinStats{}) {
		t.Fatalf("monostable observer counted: %+v", got)
	}
}

// TestBasinSettleDefault pins the duration/3 fallback: an engine run
// without an explicit SetBasinSettle classifies transits against
// duration/3, and an explicit boundary overrides it.
func TestBasinSettleDefault(t *testing.T) {
	h, err := Assemble(BistableScenario(3, BistableWellM, BistableBarrierJ, 0, 0, 8, 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	h.defaultBasinSettle(3)
	thr := h.Cfg.Microgen.WellZ() / 2
	h.observeBasin(0.9, thr)  // before 3/3 = 1 s: unsettled
	h.observeBasin(1.1, -thr) // after: settled
	if got := h.BasinStats(); got != (BasinStats{Transits: 2, SettledTransits: 1, FinalBasin: -1}) {
		t.Fatalf("default settle boundary misclassified: %+v", got)
	}

	h.Reset()
	h.SetBasinSettle(0.5) // explicit boundary wins over the default
	h.defaultBasinSettle(3)
	h.observeBasin(0.9, thr)
	if got := h.BasinStats(); got != (BasinStats{Transits: 1, SettledTransits: 1, FinalBasin: 1}) {
		t.Fatalf("explicit settle boundary ignored: %+v", got)
	}
}

// TestWarmStepZeroAllocsBistable extends the zero-alloc pin to the
// double-well workload: piecewise re-tangents that survive inter-well
// jumps, the displacement-dependent coupling restamp and the basin
// observer must all stay on the allocation-free hot path.
func TestWarmStepZeroAllocsBistable(t *testing.T) {
	sc := BistableScenario(1000, BistableWellM, BistableBarrierJ, 120, -3.4e4, 8, 40, 42)
	sc.Cfg.VibNoise.RMS = 3 // forced-jump regime: constant basin traffic
	h, err := Assemble(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*trace.Series{h.VcTrace, h.PMultIn, h.PStoreTrace, h.FresTrace} {
		s.Reserve(1 << 16)
	}
	h.SetBasinSettle(0) // every transit settled: observer fully active
	eng, ok := h.NewEngine(Proposed, 1).(*core.Engine)
	if !ok {
		t.Fatal("proposed engine is not a core.Engine")
	}
	if err := eng.Begin(0, sc.Duration); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	refreshesBefore := eng.Stats.Refreshes
	transitsBefore := h.BasinStats().Transits
	stepErr := error(nil)
	avg := testing.AllocsPerRun(500, func() {
		if _, err := eng.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if avg != 0 {
		t.Fatalf("warm bistable step allocates %.3f objects/step, want 0", avg)
	}
	if eng.Stats.Refreshes == refreshesBefore {
		t.Fatal("test premise broken: no re-tangents during the measured steps")
	}
	if h.BasinStats().Transits == transitsBefore {
		t.Fatal("test premise broken: no inter-well transits during the measured steps")
	}
}
