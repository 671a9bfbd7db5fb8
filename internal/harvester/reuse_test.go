package harvester

import (
	"testing"

	"harvsim/internal/core"
	"harvsim/internal/trace"
)

// sameSeries asserts bit-for-bit equality of two recorded waveforms.
func sameSeries(t *testing.T, label string, a, b *trace.Series) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: length %d vs %d", label, a.Len(), b.Len())
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] || a.Vals[i] != b.Vals[i] {
			t.Fatalf("%s: sample %d differs: (%v, %v) vs (%v, %v)",
				label, i, a.Times[i], a.Vals[i], b.Times[i], b.Vals[i])
		}
	}
}

func sameState(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: state length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: state[%d] = %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestResetRerunBitIdentical pins the Reset reuse protocol: a harvester
// that has already completed a run, after Reset+Schedule, must reproduce
// a freshly assembled harvester's run bit for bit — same waveforms, same
// final state, same energy accounting. The scenario is autonomous (MCU
// wake, frequency shift event) so the kernel/actuator/meter reset paths
// are all exercised.
func TestResetRerunBitIdentical(t *testing.T) {
	sc := Scenario1(Quick)
	sc.Duration = 25
	sc.Shifts = []FreqShift{{T: 10, Hz: 71}}

	fresh, err := Assemble(sc)
	if err != nil {
		t.Fatal(err)
	}
	engF, err := fresh.Run(Proposed, sc.Duration, 4)
	if err != nil {
		t.Fatal(err)
	}

	reused, err := Assemble(sc)
	if err != nil {
		t.Fatal(err)
	}
	// First run dirties every cache: PWL segments, supercap tangent,
	// balancing scales, event queue, traces.
	if _, err := reused.Run(Proposed, sc.Duration, 4); err != nil {
		t.Fatal(err)
	}
	reused.Reset()
	if err := reused.Schedule(sc); err != nil {
		t.Fatal(err)
	}
	engR, err := reused.Run(Proposed, sc.Duration, 4)
	if err != nil {
		t.Fatal(err)
	}

	sameSeries(t, "Vc", fresh.VcTrace, reused.VcTrace)
	sameSeries(t, "Pmult", fresh.PMultIn, reused.PMultIn)
	sameSeries(t, "fres", fresh.FresTrace, reused.FresTrace)
	sameState(t, "final", engF.State(), engR.State())
	if fresh.Energy != reused.Energy {
		t.Fatalf("energy accounting differs: %+v vs %+v", fresh.Energy, reused.Energy)
	}
	sf, sr := core.Stats{}, core.Stats{}
	if e, ok := engF.(*core.Engine); ok {
		sf = e.Stats
	}
	if e, ok := engR.(*core.Engine); ok {
		sr = e.Stats
	}
	if sf.Steps != sr.Steps || sf.Refreshes != sr.Refreshes {
		t.Fatalf("run shape differs: %d/%d steps, %d/%d refreshes",
			sf.Steps, sr.Steps, sf.Refreshes, sr.Refreshes)
	}
}

// TestTwoEnginesOnPooledSystemDoNotAlias pins the workspace claiming
// rule: only one engine may bind a pooled system's workspace; a second
// engine on the same system must get private storage, not clobber the
// first engine's state views.
func TestTwoEnginesOnPooledSystemDoNotAlias(t *testing.T) {
	sc := ChargeScenario(0.05)
	sc.Cfg.InitialVc = 2.5
	pool := core.NewWorkspacePool()
	h, err := AssembleWith(sc, pool)
	if err != nil {
		t.Fatal(err)
	}
	e1 := core.NewEngine(h.Sys)
	e1.Ctl.HMax = 2.5e-4
	if err := e1.Run(0, sc.Duration); err != nil {
		t.Fatal(err)
	}
	s1 := append([]float64(nil), e1.State()...)

	e2 := core.NewEngine(h.Sys)
	e2.Ctl.HMax = 1e-4 // different cap: a different trajectory
	if err := e2.Run(0, sc.Duration); err != nil {
		t.Fatal(err)
	}
	sameState(t, "first engine after second run", e1.State(), s1)
	if e1.Workspace() == e2.Workspace() {
		t.Fatal("second engine aliased the first engine's workspace")
	}
}

// TestPooledAssembleBitIdentical pins the workspace-pool path: a
// harvester assembled on a recycled (dirty) workspace must run
// bit-identically to one with fresh storage.
func TestPooledAssembleBitIdentical(t *testing.T) {
	sc := ChargeScenario(2)
	sc.Cfg.InitialVc = 2.5

	fresh, err := Assemble(sc)
	if err != nil {
		t.Fatal(err)
	}
	engF, err := fresh.Run(Proposed, sc.Duration, 1)
	if err != nil {
		t.Fatal(err)
	}

	pool := core.NewWorkspacePool()
	first, err := AssembleWith(sc, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Run(Proposed, sc.Duration, 1); err != nil {
		t.Fatal(err)
	}
	first.Release()

	second, err := AssembleWith(sc, pool)
	if err != nil {
		t.Fatal(err)
	}
	if gets, hits := pool.Stats(); gets != 2 || hits != 1 {
		t.Fatalf("pool did not recycle: gets=%d hits=%d", gets, hits)
	}
	engP, err := second.Run(Proposed, sc.Duration, 1)
	if err != nil {
		t.Fatal(err)
	}

	sameSeries(t, "Vc", fresh.VcTrace, second.VcTrace)
	sameState(t, "final", engF.State(), engP.State())
	second.Release()
}

// TestProposedAfterImplicitBitIdentical pins the restart of the
// Jacobian change log across engines: an implicit run restamps the
// system's Jacobian through JacNonlinear, whose stamps bypass the log,
// and a proposed run after Reset+Schedule must still reproduce a fresh
// proposed run bit for bit — waveform, final state and every Stats
// field, MaxJacChange included.
func TestProposedAfterImplicitBitIdentical(t *testing.T) {
	sc := ChargeScenario(0.5)
	sc.Cfg.InitialVc = 2.5
	proposedAfterImplicit(t, sc)
}

// TestResetClearsExactStampsOnlyEntries: the bistable device's
// displacement-dependent coupling makes JacNonlinear write an entry the
// PWL stamps never do (the coil row's −dPhi/dz·zdot against z, Jyx[0]).
// Reset must clear it, or the proposed run after a trap run marches
// with it: its final velocity read 0.0130964673 against a fresh run's
// 0.0130965188.
func TestResetClearsExactStampsOnlyEntries(t *testing.T) {
	proposedAfterImplicit(t, BistableScenario(0.5, BistableWellM, BistableBarrierJ, 120, -3.4e4, 8, 40, 7))
}

// proposedAfterImplicit requires a proposed run of sc on a harvester that
// first ran sc under the trapezoidal engine, then Reset and Schedule, to
// equal a proposed run on a freshly assembled one bit for bit.
func proposedAfterImplicit(t *testing.T, sc Scenario) {
	t.Helper()
	fresh, err := Assemble(sc)
	if err != nil {
		t.Fatal(err)
	}
	engF, err := fresh.Run(Proposed, sc.Duration, 1)
	if err != nil {
		t.Fatal(err)
	}

	reused, err := Assemble(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reused.Run(ExistingTrap, sc.Duration, 1); err != nil {
		t.Fatal(err)
	}
	reused.Reset()
	if err := reused.Schedule(sc); err != nil {
		t.Fatal(err)
	}
	engR, err := reused.Run(Proposed, sc.Duration, 1)
	if err != nil {
		t.Fatal(err)
	}

	sameSeries(t, "Vc", fresh.VcTrace, reused.VcTrace)
	sameState(t, "final", engF.State(), engR.State())
	sf, sr := engF.(*core.Engine).Stats, engR.(*core.Engine).Stats
	if sf != sr {
		t.Fatalf("stats differ:\nfresh  %+v\nreused %+v", sf, sr)
	}
}
