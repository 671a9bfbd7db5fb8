package harvsim

// The observer-grade tracing contract, pinned at the engine and batch
// layers: tracing off adds zero allocations to the warm step, and
// tracing on changes no result bit on any engine (see DESIGN.md
// "Tracing & flight recorder").

import (
	"reflect"
	"testing"

	"harvsim/internal/batch"
	"harvsim/internal/core"
	"harvsim/internal/harvester"
	"harvsim/internal/tracing"
)

// TestTraceOffZeroOverhead pins the disabled path: with Engine.Phases
// nil (the default — no recorder attached anywhere), a warm
// steady-state step allocates nothing. This is the same hot path
// BenchmarkWarmStep gates in CI; here it is a hard test so the
// contract fails loudly even in -short runs that skip benches.
func TestTraceOffZeroOverhead(t *testing.T) {
	sc := harvester.ChargeScenario(1e9)
	sc.Cfg.InitialVc = 2.5
	h, err := harvester.Assemble(sc)
	if err != nil {
		t.Fatal(err)
	}
	eng, ok := h.NewEngine(harvester.Proposed, 1<<20).(*core.Engine)
	if !ok {
		t.Fatal("proposed engine is not a core.Engine")
	}
	if eng.Phases != nil {
		t.Fatal("fresh engine has phase timing armed; tracing must be opt-in")
	}
	if err := eng.Begin(0, sc.Duration); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm step with tracing off allocates %.1f/op, want 0", allocs)
	}
}

// TestTracedRunBitIdenticalAllEngines runs the same jobs with and
// without a recorder attached on every engine kind — a seed-grouped
// ensemble plus a lone charge job — and requires every result field
// that leaves the batch layer to match exactly.
func TestTracedRunBitIdenticalAllEngines(t *testing.T) {
	kinds := []struct {
		name string
		kind harvester.EngineKind
	}{
		{"proposed", harvester.Proposed},
		{"trap", harvester.ExistingTrap},
		{"bdf2", harvester.ExistingBDF2},
		{"be", harvester.ExistingBE},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			// Three seed realisations sharing a Group, as a seed axis
			// expands them; each runs as an ordinary job.
			var jobs []batch.Job
			for _, seed := range batch.Seeds(11, 3) {
				jobs = append(jobs, batch.Job{
					Name:     "ens",
					Group:    "point-0",
					Seed:     seed,
					Scenario: harvester.NoiseScenario(0.2, 55, 85, seed),
					Engine:   k.kind,
				})
			}
			sc := harvester.ChargeScenario(0.2)
			sc.Cfg.InitialVc = 2.5
			jobs = append(jobs, batch.Job{Name: "charge", Scenario: sc, Engine: k.kind})

			plain := batch.RunSerial(jobs, batch.Options{})

			rec := tracing.New("", 0)
			root := rec.Start("sweep", "")
			traced := batch.RunSerial(jobs, batch.Options{Trace: rec, TraceParent: root.ID()})
			root.End()
			rec.Finish()

			if len(plain) != len(traced) {
				t.Fatalf("%d vs %d results", len(plain), len(traced))
			}
			for i := range plain {
				a, b := plain[i], traced[i]
				if a.Err != nil || b.Err != nil {
					t.Fatalf("[%d]: errors %v / %v", i, a.Err, b.Err)
				}
				if a.Metric != b.Metric || a.RMSPower != b.RMSPower ||
					a.MeanPower != b.MeanPower || a.FinalVc != b.FinalVc {
					t.Errorf("[%d]: metrics differ:\n  off %+v\n  on  %+v", i, a, b)
				}
				if !reflect.DeepEqual(a.FinalState, b.FinalState) {
					t.Errorf("[%d]: final state differs", i)
				}
				if a.Energy != b.Energy {
					t.Errorf("[%d]: energy differs", i)
				}
				if a.Stats != b.Stats {
					t.Errorf("[%d]: engine stats differ: %+v vs %+v", i, a.Stats, b.Stats)
				}
				if a.Key != b.Key {
					t.Errorf("[%d]: cache key %q vs %q", i, a.Key, b.Key)
				}
				// The breakdown rides only on the traced run.
				if len(a.Phases) != 0 {
					t.Errorf("[%d]: untraced result carries phases %v", i, a.Phases)
				}
				if len(b.Phases) == 0 {
					t.Errorf("[%d]: traced result carries no phases", i)
				}
			}

			// The trace itself: one job span per job, all parented
			// (transitively) to the sweep root.
			spans, _ := rec.Snapshot(0)
			jobSpans := 0
			for _, s := range spans {
				if s.Name == "job" {
					jobSpans++
				}
			}
			if jobSpans != len(jobs) {
				t.Errorf("%d job spans for %d jobs", jobSpans, len(jobs))
			}
		})
	}
}
