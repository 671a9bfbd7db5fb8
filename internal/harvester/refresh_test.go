package harvester

import (
	"testing"

	"harvsim/internal/blocks"
	"harvsim/internal/core"
)

// proposedStats runs sc under the proposed engine and returns its
// counters.
func proposedStats(t *testing.T, sc Scenario) core.Stats {
	t.Helper()
	_, eng, err := RunScenario(sc, Proposed, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return eng.(*core.Engine).Stats
}

// TestChargeCountersUnmoved: the Table I charge never takes a diode into
// the merged reverse-bias span of its table, so its counters are those
// of the uniform table's run, exactly.
func TestChargeCountersUnmoved(t *testing.T) {
	s := proposedStats(t, ChargeScenario(2))
	got := [4]int{s.Steps, s.Refreshes, s.StabilityRecomputes, s.YSolves}
	if want := [4]int{14079, 11216, 9431, 22349}; got != want {
		t.Fatalf("charge steps, refreshes, stability analyses, solves = %v, want %v", got, want)
	}
}

// TestScenario1RefreshEconomy: on scenario 1 the multiplier's diodes
// spend most of their time in deep reverse bias. With that span merged
// into one segment the run refreshes on fewer than 0.6 of its steps
// (0.95 on the uniform table), and its step count stays within 0.1% of
// the uniform table's 20,671.
func TestScenario1RefreshEconomy(t *testing.T) {
	sc := Scenario1(Quick)
	sc.Duration = 3
	sc.Shifts = []FreqShift{{T: 1.5, Hz: 71}}
	s := proposedStats(t, sc)
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
