package harvsim

// Cross-engine conformance suite: the same workloads under all four
// engines, asserting the physics agrees. The CPU-time benchmarks only
// measure speed, so without this suite any one engine could silently
// drift (a sign error in a Jacobian stamp, a broken Newton tolerance)
// and the "speedup at similar accuracy" claim would quietly become
// meaningless.
//
// Tolerances are per engine, calibrated on the seed implementation:
//
//   - the trapezoidal baseline is non-dissipative and matches the
//     proposed engine within a few percent on RMS power;
//   - BDF2 (Gear) is mildly dissipative on the harvester's high-Q
//     resonator; it runs under a tightened step cap and then also
//     agrees within a few percent;
//   - backward Euler's first-order numerical damping collapses the
//     resonant response at any practical step, so for it only the
//     storage voltage (an integral quantity) is asserted, plus the
//     directional fact that dissipation can only lose power.
//
// Final supercap voltage agrees to sub-millivolt across all four.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// conformanceCase is one engine's tolerance row.
type conformanceCase struct {
	kind    EngineKind
	hmax    float64 // step cap (tightened for the dissipative baselines)
	vcTol   float64 // |final Vc - reference| bound [V]
	powRtol float64 // relative RMS-power bound; 0 = damped-engine check only
}

func runConformance(t *testing.T, name string, sc Scenario, cases []conformanceCase) {
	t.Helper()
	jobs := make([]BatchJob, len(cases))
	for i, c := range cases {
		job := BatchJob{Name: fmt.Sprintf("%s/%v", name, c.kind), Scenario: sc.Clone(), Engine: c.kind, Decimate: 1}
		job.Scenario.Cfg.Solver.HMax = c.hmax
		jobs[i] = job
	}
	results := RunBatch(context.Background(), jobs, BatchOptions{})
	ref := results[0]
	if ref.Err != nil {
		t.Fatalf("reference engine failed: %v", ref.Err)
	}
	if ref.RMSPower <= 0 || math.IsNaN(ref.RMSPower) {
		t.Fatalf("reference produced degenerate power %v", ref.RMSPower)
	}
	for i, r := range results {
		c := cases[i]
		if r.Err != nil {
			t.Errorf("%v failed: %v", c.kind, r.Err)
			continue
		}
		if dvc := math.Abs(r.FinalVc - ref.FinalVc); dvc > c.vcTol {
			t.Errorf("%v final Vc drifted: %v vs reference %v (|d|=%.3g > %.3g)",
				c.kind, r.FinalVc, ref.FinalVc, dvc, c.vcTol)
		}
		if c.powRtol > 0 {
			if rel := math.Abs(r.RMSPower-ref.RMSPower) / ref.RMSPower; rel > c.powRtol {
				t.Errorf("%v RMS power drifted: %v vs reference %v (rel %.3g > %.3g)",
					c.kind, r.RMSPower, ref.RMSPower, rel, c.powRtol)
			}
		} else if i > 0 {
			// Dissipative engine: numerical damping only removes power.
			if r.RMSPower <= 0 || r.RMSPower >= ref.RMSPower {
				t.Errorf("%v RMS power %v outside (0, reference %v): dissipation check failed",
					c.kind, r.RMSPower, ref.RMSPower)
			}
		}
		t.Logf("%-34v finalVc=%.6f rmsP=%.4guW steps=%d", c.kind, r.FinalVc, r.RMSPower*1e6, r.Stats.Steps)
	}
}

// TestConformanceCharge checks engine agreement on the non-autonomous
// supercap charge from a partially charged working point (the operating
// region where the multiplier's diode nonlinearity is fully exercised),
// through the default 5-stage multiplier and through 7 and 10 stages,
// whose varying Jacobian entries (34 and 49) key the proposed engine's
// stability memo beyond the default's 24.
func TestConformanceCharge(t *testing.T) {
	for _, stages := range []int{5, 7, 10} {
		t.Run(fmt.Sprintf("%d-stages", stages), func(t *testing.T) {
			sc := ChargeScenario(2)
			sc.Cfg.InitialVc = 2.5
			sc.Cfg.Dickson.Stages = stages
			runConformance(t, "charge", sc, []conformanceCase{
				{Proposed, 2.5e-4, 0, 0},
				{ExistingTrap, 2.5e-4, 1e-3, 0.10},
				{ExistingBDF2, 1e-4, 1e-3, 0.10},
				{ExistingBE, 2.5e-4, 1e-3, 0},
			})
		})
	}
}

// TestConformanceDuffingLinearLimit pins the k3 → 0 limit of the new
// nonlinear path on every engine: DuffingScenario(d, 0) must reproduce
// the linear microgenerator's charge run to machine precision — in fact
// bit for bit, because every Duffing stamping/residual expression is
// gated so the k3 = 0 path computes exactly the pre-existing linear
// arithmetic.
func TestConformanceDuffingLinearLimit(t *testing.T) {
	for _, kind := range []EngineKind{Proposed, ExistingTrap, ExistingBDF2, ExistingBE} {
		duff := DuffingScenario(1.5, 0)
		hD, engD, err := RunScenario(duff, kind, 1)
		if err != nil {
			t.Fatalf("%v duffing: %v", kind, err)
		}
		lin := ChargeScenario(1.5)
		lin.Cfg.InitialVc = duff.Cfg.InitialVc // same operating point
		hL, engL, err := RunScenario(lin, kind, 1)
		if err != nil {
			t.Fatalf("%v linear: %v", kind, err)
		}
		if hD.VcTrace.Len() != hL.VcTrace.Len() {
			t.Fatalf("%v: trace lengths differ: %d vs %d", kind, hD.VcTrace.Len(), hL.VcTrace.Len())
		}
		for i := range hD.VcTrace.Times {
			if hD.VcTrace.Times[i] != hL.VcTrace.Times[i] || hD.VcTrace.Vals[i] != hL.VcTrace.Vals[i] {
				t.Fatalf("%v: Vc sample %d differs: (%v, %v) vs (%v, %v)", kind, i,
					hD.VcTrace.Times[i], hD.VcTrace.Vals[i], hL.VcTrace.Times[i], hL.VcTrace.Vals[i])
			}
		}
		sd, sl := engD.State(), engL.State()
		for i := range sd {
			if sd[i] != sl[i] {
				t.Fatalf("%v: final state[%d] differs: %v vs %v", kind, i, sd[i], sl[i])
			}
		}
		if hD.Energy != hL.Energy {
			t.Fatalf("%v: energy accounting differs: %+v vs %+v", kind, hD.Energy, hL.Energy)
		}
	}
}

// TestConformanceBistableLinearLimit pins the degenerate-well limit of
// the bistable path on every engine: BistableScenario with wellM =
// barrierJ = 0 (and no coupling corrections) must reproduce the
// monostable NoiseScenario run bit for bit — every K1/Xi1/Xi2/Z0
// stamping, residual and basin-observer expression is gated so the
// zero-valued path computes exactly the pre-existing arithmetic.
func TestConformanceBistableLinearLimit(t *testing.T) {
	for _, kind := range []EngineKind{Proposed, ExistingTrap, ExistingBDF2, ExistingBE} {
		bi := BistableScenario(1.5, 0, 0, 0, 0, 55, 85, 7)
		hB, engB, err := RunScenario(bi, kind, 1)
		if err != nil {
			t.Fatalf("%v bistable: %v", kind, err)
		}
		lin := NoiseScenario(1.5, 55, 85, 7)
		hL, engL, err := RunScenario(lin, kind, 1)
		if err != nil {
			t.Fatalf("%v linear: %v", kind, err)
		}
		if hB.VcTrace.Len() != hL.VcTrace.Len() {
			t.Fatalf("%v: trace lengths differ: %d vs %d", kind, hB.VcTrace.Len(), hL.VcTrace.Len())
		}
		for i := range hB.VcTrace.Times {
			if hB.VcTrace.Times[i] != hL.VcTrace.Times[i] || hB.VcTrace.Vals[i] != hL.VcTrace.Vals[i] {
				t.Fatalf("%v: Vc sample %d differs: (%v, %v) vs (%v, %v)", kind, i,
					hB.VcTrace.Times[i], hB.VcTrace.Vals[i], hL.VcTrace.Times[i], hL.VcTrace.Vals[i])
			}
		}
		sb, sl := engB.State(), engL.State()
		for i := range sb {
			if sb[i] != sl[i] {
				t.Fatalf("%v: final state[%d] differs: %v vs %v", kind, i, sb[i], sl[i])
			}
		}
		if hB.Energy != hL.Energy {
			t.Fatalf("%v: energy accounting differs: %+v vs %+v", kind, hB.Energy, hL.Energy)
		}
		// The degenerate well is monostable: the basin observer must stay
		// entirely inert.
		if bs := hB.BasinStats(); bs != (BasinStats{}) {
			t.Fatalf("%v: degenerate well produced basin stats %+v", kind, bs)
		}
	}
}

// TestConformanceBistable checks engine agreement on the double-well
// workload — the first piecewise-tangent workload where the operating
// point jumps between linearisation regions instead of drifting around
// one. The horizon is kept short enough that the (chaotic) inter-well
// trajectory has not decorrelated between integrators, so power and
// voltage agreement remain meaningful properties; every engine must
// also agree on the basin itinerary itself (transit count and final
// basin) over this horizon.
func TestConformanceBistable(t *testing.T) {
	sc := BistableScenario(0.8, BistableWellM, BistableBarrierJ, 0, 0, 8, 40, 7)
	runConformance(t, "bistable", sc, []conformanceCase{
		{Proposed, 2.5e-4, 0, 0},
		{ExistingTrap, 2.5e-4, 1e-3, 0.10},
		{ExistingBDF2, 1e-4, 1e-3, 0.10},
		{ExistingBE, 2.5e-4, 1e-3, 0},
	})

	// Basin itinerary agreement across all four engines.
	type itin struct{ transits, final int }
	var ref itin
	for i, kind := range []EngineKind{Proposed, ExistingTrap, ExistingBDF2, ExistingBE} {
		s := sc.Clone()
		if kind == ExistingBDF2 {
			s.Cfg.Solver.HMax = 1e-4
		} else {
			s.Cfg.Solver.HMax = 2.5e-4
		}
		h, _, err := RunScenario(s, kind, 64)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		bs := h.BasinStats()
		got := itin{bs.Transits, bs.FinalBasin}
		if bs.Transits < 2 {
			t.Errorf("%v: only %d transits — drive too weak to exercise jumps", kind, bs.Transits)
		}
		if i == 0 {
			ref = got
		} else if got != ref {
			t.Errorf("%v: basin itinerary %+v differs from proposed %+v", kind, got, ref)
		}
		h.Release()
	}
}

// TestPropertyBistableStochasticConformance is the seeded property
// suite for the double-well workload: random-but-deterministic draws
// over well geometry, barrier height, coupling corrections and noise
// drive, each run under the proposed engine and the exact-cubic
// trapezoidal ground truth. Per case: energy passivity on both engines,
// final-voltage agreement, and settled RMS power within a calibrated
// tolerance. Horizons stay short for the same reason as the bistable
// conformance case above: inter-well dynamics are chaotic, so long-run
// trajectory agreement between any two integrators is not a meaningful
// property — short-run power and passivity are.
func TestPropertyBistableStochasticConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("property conformance skipped in -short (seconds of implicit solving)")
	}
	const (
		cases   = 6
		powRtol = 0.35
		powAbs  = 1e-6 // [W] diode-threshold floor, as in the Duffing suite
		vcTol   = 2e-3
	)
	rng := rand.New(rand.NewSource(20260807)) // fixed: the suite is deterministic
	for i := 0; i < cases; i++ {
		well := 3e-4 + rng.Float64()*4e-4
		barrier := 0.5e-6 + rng.Float64()*3.5e-6
		xi1 := (rng.Float64() - 0.5) * 400 // |xi1*z| up to ~0.14
		xi2 := (rng.Float64() - 0.5) * 1e5
		rms := 0.3 + rng.Float64()*0.6
		seed := rng.Uint64()
		name := fmt.Sprintf("case%d[well=%.3g barrier=%.3g xi=%.3g/%.3g rms=%.2f seed=%d]",
			i, well, barrier, xi1, xi2, rms, seed)

		sc := BistableScenario(0.8, well, barrier, xi1, xi2, 8, 40, seed)
		sc.Cfg.VibNoise.RMS = rms
		jobs := []BatchJob{
			{Name: name + "/proposed", Scenario: sc.Clone(), Engine: Proposed, Decimate: 1},
			{Name: name + "/trap", Scenario: sc.Clone(), Engine: ExistingTrap, Decimate: 1},
		}
		results := RunBatch(context.Background(), jobs, BatchOptions{})
		ref, trap := results[0], results[1]
		if ref.Err != nil || trap.Err != nil {
			t.Fatalf("%s: run failed: %v / %v", name, ref.Err, trap.Err)
		}
		checkEnergyInvariants(t, name+"/proposed", ref.Energy)
		checkEnergyInvariants(t, name+"/trap", trap.Energy)
		if dvc := math.Abs(ref.FinalVc - trap.FinalVc); dvc > vcTol {
			t.Errorf("%s: final Vc drifted %g (tol %g)", name, dvc, vcTol)
		}
		if trap.RMSPower <= 0 || math.IsNaN(trap.RMSPower) {
			t.Errorf("%s: degenerate baseline power %v", name, trap.RMSPower)
			continue
		}
		if d := math.Abs(ref.RMSPower - trap.RMSPower); d > powAbs+powRtol*trap.RMSPower {
			t.Errorf("%s: RMS power drifted: %v vs %v (|d|=%.3g > %.3g)",
				name, ref.RMSPower, trap.RMSPower, d, powAbs+powRtol*trap.RMSPower)
		}
		t.Logf("%s: P=%.4guW/%.4guW dVc=%.2g transits=%d/%d", name,
			ref.RMSPower*1e6, trap.RMSPower*1e6, math.Abs(ref.FinalVc-trap.FinalVc),
			ref.Transits, trap.Transits)
	}
}

// TestBistableRefactorsBoundedUnderJumps is the engine-level no-thrash
// regression for the retangent policy under inter-well jumps. The
// proposed engine calls Linearise (up to) twice per step attempt on the
// full system — once at the new state, once after the PWL segment
// resolution — so 2.0 refactors per attempt is the structural ceiling,
// and a retangent test whose reference is the SIGNED stamped stiffness
// (which passes through zero at the well inflection points) pins the
// march at that ceiling: every Linearise call mid-jump restamps. The
// absolute-sum reference keeps the microgen's retangent to at most one
// per attempt, landing the forced-jump workload near 1.4 (calibrated;
// the workload is seeded and fully deterministic). The bound at 1.6
// leaves headroom for legitimate drift while still catching the
// every-call thrash mode.
func TestBistableRefactorsBoundedUnderJumps(t *testing.T) {
	sc := BistableScenario(1.5, BistableWellM, BistableBarrierJ, 0, 0, 8, 40, 7)
	sc.Cfg.VibNoise.RMS = 3.0 // hard drive: sustained jumping
	h, eng, err := RunScenario(sc, Proposed, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if bs := h.BasinStats(); bs.Transits < 10 {
		t.Fatalf("only %d transits — not a forced-jump workload", bs.Transits)
	}
	stats := StatsOf(eng)
	attempts := stats.Steps + stats.Rejected
	if ratio := float64(stats.Refactors) / float64(attempts); ratio > 1.6 {
		t.Fatalf("refactors %d for %d step attempts (%.2f per attempt, bound 1.6): retangent thrash under jumps",
			stats.Refactors, attempts, ratio)
	}
	t.Logf("steps=%d rejected=%d refactors=%d (%.2f per attempt)",
		stats.Steps, stats.Rejected, stats.Refactors, float64(stats.Refactors)/float64(attempts))
}

// checkEnergyInvariants asserts the passivity properties that hold for
// ANY parameter draw and any engine — the property-based counterpart of
// golden-answer checks, for a path where no closed form exists:
//
//   - the supercapacitor block is passive: the energy delivered into its
//     terminals covers the stored-energy increase plus the folded
//     equivalent-load energy, with the non-negative remainder being
//     internal branch/leakage dissipation;
//   - the multiplier chain is passive up to the energy its precharged
//     stage capacitors may legitimately release.
//
// Tolerances cover trapezoidal integration error of the accounting
// integrals, scaled to the gross energy flow.
func checkEnergyInvariants(t *testing.T, label string, e Energy) {
	t.Helper()
	gross := math.Abs(e.Harvested) + math.Abs(e.ToStore) + math.Abs(e.Load) +
		math.Abs(e.StoredT1-e.StoredT0)
	tol := 1e-9 + 1e-3*gross
	resid := e.ToStore - (e.StoredT1 - e.StoredT0) - e.Load
	if resid < -tol {
		t.Errorf("%s: supercap passivity violated: residual %g (tol %g, energy %+v)",
			label, resid, tol, e)
	}
	// Stage-capacitor allowance: the Dickson caps are precharged to the
	// initial operating point and may hand back at most that energy.
	if e.ToStore > e.Harvested+2e-5+tol {
		t.Errorf("%s: multiplier passivity violated: delivered %g > harvested %g",
			label, e.ToStore, e.Harvested)
	}
}

// TestPropertyNonlinearStochasticConformance is the property-based
// cross-engine suite for the workload class with no closed-form golden
// answer: random-but-seeded Duffing coefficients and noise bands, each
// case run under the proposed engine and the exact-Newton trapezoidal
// baseline. Asserted per case: the energy passivity invariants on both
// engines, final-voltage agreement, and settled-window RMS power within
// a calibrated tolerance. The parameter ranges deliberately stop short
// of the strongly-hardening chaotic regime (k3 ~ 1e10 under strong
// noise), where trajectory-level divergence between any two integrators
// is exponential and power agreement is not a meaningful property.
func TestPropertyNonlinearStochasticConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("property conformance skipped in -short (seconds of implicit solving)")
	}
	const (
		cases   = 6
		powRtol = 0.35 // calibrated: worst observed ~0.25 over the ranges below
		powAbs  = 1e-6 // [W] floor: below a few uW the multiplier operates at
		// its diode conduction threshold, where relative power is
		// ill-conditioned (threshold-crossing counting), so agreement is
		// asserted absolutely there
		vcTol = 2e-3
	)
	rng := rand.New(rand.NewSource(20260725)) // fixed: the suite is deterministic
	for i := 0; i < cases; i++ {
		k3 := rng.Float64() * 2e9
		fLo := 45 + rng.Float64()*15
		fHi := fLo + 15 + rng.Float64()*20
		rms := 0.4 + rng.Float64()*0.8
		seed := rng.Uint64()
		name := fmt.Sprintf("case%d[k3=%.3g band=%.1f-%.1f rms=%.2f seed=%d]",
			i, k3, fLo, fHi, rms, seed)

		sc := NoiseScenario(1.2, fLo, fHi, seed)
		sc.Cfg.VibNoise.RMS = rms
		sc.Cfg.Microgen.K3 = k3
		jobs := []BatchJob{
			{Name: name + "/proposed", Scenario: sc.Clone(), Engine: Proposed, Decimate: 1},
			{Name: name + "/trap", Scenario: sc.Clone(), Engine: ExistingTrap, Decimate: 1},
		}
		results := RunBatch(context.Background(), jobs, BatchOptions{})
		ref, trap := results[0], results[1]
		if ref.Err != nil || trap.Err != nil {
			t.Fatalf("%s: run failed: %v / %v", name, ref.Err, trap.Err)
		}
		checkEnergyInvariants(t, name+"/proposed", ref.Energy)
		checkEnergyInvariants(t, name+"/trap", trap.Energy)
		if dvc := math.Abs(ref.FinalVc - trap.FinalVc); dvc > vcTol {
			t.Errorf("%s: final Vc drifted %g (tol %g)", name, dvc, vcTol)
		}
		if trap.RMSPower <= 0 || math.IsNaN(trap.RMSPower) {
			t.Errorf("%s: degenerate baseline power %v", name, trap.RMSPower)
			continue
		}
		if d := math.Abs(ref.RMSPower - trap.RMSPower); d > powAbs+powRtol*trap.RMSPower {
			t.Errorf("%s: RMS power drifted: %v vs %v (|d|=%.3g > %.3g)",
				name, ref.RMSPower, trap.RMSPower, d, powAbs+powRtol*trap.RMSPower)
		}
		t.Logf("%s: P=%.4guW/%.4guW dVc=%.2g", name, ref.RMSPower*1e6, trap.RMSPower*1e6,
			math.Abs(ref.FinalVc-trap.FinalVc))
	}
}

// TestConformanceScenario1 checks engine agreement on a shortened
// Scenario 1 retune: the autonomous path — digital kernel events, the
// frequency meter, the tuning actuator and the mode-switched load — all
// active under every engine.
func TestConformanceScenario1(t *testing.T) {
	if testing.Short() {
		t.Skip("autonomous conformance skipped in -short (seconds of implicit solving)")
	}
	sc := Scenario1(Quick)
	sc.Duration = 20
	sc.Shifts = []FreqShift{{T: 8, Hz: 71}}
	runConformance(t, "scenario1", sc, []conformanceCase{
		{Proposed, 2.5e-4, 0, 0},
		{ExistingTrap, 2.5e-4, 2e-3, 0.15},
		{ExistingBDF2, 1e-4, 2e-3, 0.15},
		{ExistingBE, 2.5e-4, 2e-3, 0},
	})
}
