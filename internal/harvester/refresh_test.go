package harvester

import (
	"math"
	"slices"
	"testing"

	"harvsim/internal/blocks"
	"harvsim/internal/core"
)

// proposedStats runs sc under the proposed engine and returns its
// counters.
func proposedStats(t *testing.T, sc Scenario) core.Stats {
	t.Helper()
	s, _ := proposedRun(t, sc, 1<<20)
	return s
}

// proposedRun runs sc under the proposed engine at the given trace
// decimation and returns its counters and the bits of its final state.
func proposedRun(t *testing.T, sc Scenario, decimate int) (core.Stats, []uint64) {
	t.Helper()
	_, eng, err := RunScenario(sc, Proposed, decimate)
	if err != nil {
		t.Fatal(err)
	}
	var bits []uint64
	for _, v := range eng.State() {
		bits = append(bits, math.Float64bits(v))
	}
	return eng.(*core.Engine).Stats, bits
}

// scenario1Short is Table II scenario 1 cut to 3 s, with the frequency
// shift moved to 1.5 s.
func scenario1Short() Scenario {
	sc := Scenario1(Quick)
	sc.Duration = 3
	sc.Shifts = []FreqShift{{T: 1.5, Hz: 71}}
	return sc
}

// gridCharge is a point of the design grid a refinement sweep primes: a
// 0.5 s charge from 2.5 V through a 1 kΩ coil into a multiplier of the
// given number of stages.
func gridCharge(stages int) Scenario {
	sc := ChargeScenario(0.5)
	sc.Cfg.InitialVc = 2.5
	sc.Cfg.Microgen.Rc = 1000
	sc.Cfg.Dickson.Stages = stages
	return sc
}

// TestChargeCountersUnmoved: the Table I charge never takes a diode into
// the merged reverse-bias span of its table, so its counters are those
// of the uniform table's run, exactly.
func TestChargeCountersUnmoved(t *testing.T) {
	s := proposedStats(t, ChargeScenario(2))
	got := [4]int{s.Steps, s.Refreshes, s.StabilityRecomputes, s.YSolves}
	if want := [4]int{14011, 11318, 9468, 22249}; got != want {
		t.Fatalf("charge steps, refreshes, stability analyses, solves = %v, want %v", got, want)
	}
}

// TestCapBoundRunsUnmoved pins the Table I charge and the shortened
// scenario 1 bit for bit: counters, memo hits and final state. Unlike
// the runs of TestNoRepeatRunsUnmoved, most of their steps sit at the
// stability cap and most of their analyses come from the stability
// memo, so a per-step shortcut that moved a bit on either path (the
// Jacobian products, the AB weights, the step decision, the re-check
// after the terminal solve, the multiplier's restamp) shows here. The
// design-grid charges at 3 and 6 stages vary 14 and 29 Jacobian
// entries, the narrowest and widest sets of the grid below 7 stages,
// and pin that the memo's key storage serves them as it always has.
func TestCapBoundRunsUnmoved(t *testing.T) {
	cases := []struct {
		name   string
		sc     Scenario
		count  [4]int
		reused int
		state  []uint64
	}{
		{"charge", ChargeScenario(2), [4]int{14011, 11318, 9468, 22249}, 9152, []uint64{
			0x3f27056a43992149, 0x3f738e43f863ce7d, 0xbf70bc47eef58381, 0xbf74a693e0935250, 0x3f773b7c82bf5566,
			0x3f73598e6d48d169, 0x3f3a9cd68f27208a, 0x3f34ebd090992a07, 0x3ed6bf2ae757ccd2, 0x3e9cd719261f6449}},
		{"scenario1-short", scenario1Short(), [4]int{20672, 9494, 6997, 29204}, 6858, []uint64{
			0x3f164cea728e6481, 0xbfaddfa4f30100db, 0x3fe25b9d4612491f, 0x3ff293eeb33020f8, 0x3ffbd35ed20ccfa2,
			0x40029c9eb6e4505f, 0x40073337cb83aa06, 0x4007333e5c9a208d, 0x40073333af3d198a, 0x400733333d191472}},
		{"grid-charge-3", gridCharge(3), [4]int{3437, 60, 7, 3498}, 1, []uint64{
			0x3f3274bf40033deb, 0xbed2e720299ef600, 0x3feaaab23f1bdf3e, 0x3ffaaaa6df66c71a,
			0x4003fff7b9576ae7, 0x4003fffe3fdc2a7e, 0x4003fffff5829fe1, 0x4003ffffff2c37fa}},
		{"grid-charge-6", gridCharge(6), [4]int{3438, 1283, 802, 4680}, 711, []uint64{
			0x3f31d85b94ec675a, 0x3ef148b7fd0477b4, 0x3fdad39fd067934b, 0x3fea969b3203d1fe, 0x3ff40a10bb8fdf5d,
			0x3ffaa0941f40afb6, 0x4000afa7133d8670, 0x4003fff836604ccd, 0x4003fffebd049cd7, 0x4003fffff832e7ac,
			0x4003ffffff62681c}},
	}
	for _, c := range cases {
		s, state := proposedRun(t, c.sc, 1<<20)
		if got := [4]int{s.Steps, s.Refreshes, s.StabilityRecomputes, s.YSolves}; got != c.count {
			t.Errorf("%s: steps, refreshes, stability analyses, solves = %v, want %v", c.name, got, c.count)
		}
		if s.StabilityReused != c.reused {
			t.Errorf("%s: %d analyses reused, want %d", c.name, s.StabilityReused, c.reused)
		}
		if !slices.Equal(state, c.state) {
			t.Errorf("%s: final state bits %x, want %x", c.name, state, c.state)
		}
	}
}

// TestScenario1RefreshEconomy: on scenario 1 the multiplier's diodes
// spend most of their time in deep reverse bias. With that span merged
// into one segment the run refreshes on fewer than 0.6 of its steps
// (0.95 on the uniform table), and its step count stays within 0.1% of
// the uniform table's 20,671.
func TestScenario1RefreshEconomy(t *testing.T) {
	s := proposedStats(t, scenario1Short())
	if r := float64(s.Refreshes) / float64(s.Steps); r >= 0.6 {
		t.Errorf("%.3f refreshes per step (%d over %d steps), want < 0.6", r, s.Refreshes, s.Steps)
	}
	const uniformSteps = 20671
	if d := s.Steps - uniformSteps; d*1000 > uniformSteps || -d*1000 > uniformSteps {
		t.Errorf("%d steps, want within 0.1%% of %d", s.Steps, uniformSteps)
	}
}

// TestScenarioHashNamesDiodeGrid: two grids that merge down to the same
// number of segments are still two tables, and two cache keys.
func TestScenarioHashNamesDiodeGrid(t *testing.T) {
	base := hashBase()
	segs := base.Cfg.Dickson.Diode.Table().NumSegments()
	cells := base.Cfg.Dickson.Diode.Table().NumCells()
	for n := cells + 1; n < cells+64; n++ {
		other := hashBase()
		other.Cfg.Dickson = blocks.DefaultDickson(n)
		if other.Cfg.Dickson.Diode.Table().NumSegments() != segs {
			continue
		}
		if scenarioHash(other) == scenarioHash(base) {
			t.Fatalf("grids of %d and %d cells (%d segments each) hash alike", cells, n, segs)
		}
		return
	}
	t.Fatalf("no grid of %d..%d cells merges to %d segments", cells+1, cells+63, segs)
}

// TestNoRepeatRunsUnmoved: runs that never meet a Jacobian twice get
// nothing from the stability memo, and lose nothing to it either: their
// steps, refreshes, stability analyses, solves and final state are
// those of the engine without the memo, bit for bit.
func TestNoRepeatRunsUnmoved(t *testing.T) {
	duffing := NoiseScenario(2, 55, 85, 42)
	duffing.Cfg.VibNoise.RMS = 2
	duffing.Cfg.Microgen.K3 = DuffingK3Strong
	cases := []struct {
		name  string
		sc    Scenario
		count [4]int
		state []uint64
	}{
		{"duffing-noise", duffing, [4]int{13769, 19420, 6467, 19591}, []uint64{
			0x3f1713e2707c3094, 0xbfad1f2793f3a3c6, 0x3fdf8ca67e490f93, 0x3ff00b789a9e1d15, 0x3ff7f4f0bac56b26,
			0x40000e9c88b4df94, 0x4003fff87af7be59, 0x4003ffff02260a18, 0x4003fffff89f0391, 0x4003ffffff6a3efa}},
		{"bistable", BistableScenario(2, BistableWellM, BistableBarrierJ, 120, -3.4e4, 8, 40, 7),
			[4]int{13951, 12331, 4273, 14259}, []uint64{
				0xbf41035716d76e56, 0xbfb040dc5500dd0d, 0x3fdfff6b892b58a6, 0x3ff000253b94ad5d, 0x3ff7ffdac3e902e6,
				0x400000126b00abaa, 0x4003fff27fa6ad14, 0x4003fff901fdf7f1, 0x4003ffffc79ccbe7, 0x4003fffffb86100a}},
	}
	for _, c := range cases {
		s, state := proposedRun(t, c.sc, 1)
		if s.StabilityReused != 0 {
			t.Errorf("%s: %d analyses reused, want 0 (a run without repeats)", c.name, s.StabilityReused)
		}
		if got := [4]int{s.Steps, s.Refreshes, s.StabilityRecomputes, s.YSolves}; got != c.count {
			t.Errorf("%s: steps, refreshes, stability analyses, solves = %v, want %v", c.name, got, c.count)
		}
		if !slices.Equal(state, c.state) {
			t.Errorf("%s: final state bits %x, want %x", c.name, state, c.state)
		}
	}
}

// TestWideMultiplierReusesAnalyses: the memo's key is the whole varying
// set, however wide, so the design-grid charge through 7 and 10 stages
// (34 and 49 varying entries) reuses at least 85% of its analyses, as
// the 5- and 6-stage charges do (489 of 544 and 711 of 802).
func TestWideMultiplierReusesAnalyses(t *testing.T) {
	for _, n := range []int{7, 10} {
		s := proposedStats(t, gridCharge(n))
		if s.StabilityReused*100 < 85*s.StabilityRecomputes {
			t.Errorf("%d stages: %d of %d analyses reused, want at least 85%%",
				n, s.StabilityReused, s.StabilityRecomputes)
		}
	}
}

// TestRecycledMemoRunsFresh: the stability memo's storage is recycled
// across engines, and a charge run on the storage a scenario-1 run and
// then a 10-stage charge, with its wider keys, just handed back equals
// one on the storage before them, bit for bit: nothing of one run's memo
// reaches the next.
func TestRecycledMemoRunsFresh(t *testing.T) {
	first, firstState := proposedRun(t, ChargeScenario(2), 1<<20)
	if s1 := proposedStats(t, scenario1Short()); s1.StabilityReused == 0 {
		t.Fatal("test premise broken: the scenario-1 run reused no analysis")
	}
	proposedStats(t, gridCharge(10))
	again, againState := proposedRun(t, ChargeScenario(2), 1<<20)
	if first.StabilityReused == 0 {
		t.Fatal("test premise broken: the charge reused no analysis")
	}
	if again != first || !slices.Equal(againState, firstState) {
		t.Fatalf("charge after scenario 1: stats %+v, state %x; before it: %+v, %x",
			again, againState, first, firstState)
	}
}
