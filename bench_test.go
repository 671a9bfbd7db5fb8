package harvsim

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations and the batch-sweep throughput record (see DESIGN.md). The
// benchmarks run bench-scale horizons (physics identical to the
// paper-scale scenarios; CPU-time ratios are per-step properties and
// carry over). Regenerate the full report with: go run ./cmd/benchtab
//
// Each benchmark logs the reproduced table/figure once so that
// `go test -bench=. -benchmem` output doubles as the experiment record.

import (
	"context"
	"runtime"
	"testing"

	"harvsim/internal/batch"
	"harvsim/internal/core"
	"harvsim/internal/exp"
	"harvsim/internal/harvester"
)

// benchTable1Sim is the simulated charging span for Table I benches.
const benchTable1Sim = 2.0

func BenchmarkTable1_SystemVisionVHDLAMS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := harvester.ChargeScenario(benchTable1Sim)
		if _, _, err := harvester.RunScenario(sc, harvester.ExistingTrap, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_SystemCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := harvester.ChargeScenario(benchTable1Sim)
		if _, _, err := harvester.RunScenario(sc, harvester.ExistingBDF2, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Proposed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := harvester.ChargeScenario(benchTable1Sim)
		if _, _, err := harvester.RunScenario(sc, harvester.Proposed, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Full(b *testing.B) {
	// The assembled Table I (all four environments) with the rendered
	// comparison logged once.
	var res exp.Table1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.Table1(benchTable1Sim)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.String())
}

func BenchmarkTable2_Scenario1_Existing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := harvester.Scenario1(harvester.Quick)
		sc.Duration = 30
		if _, _, err := harvester.RunScenario(sc, harvester.ExistingTrap, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Scenario1_Proposed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := harvester.Scenario1(harvester.Quick)
		sc.Duration = 30
		if _, _, err := harvester.RunScenario(sc, harvester.Proposed, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Scenario2_Existing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := harvester.Scenario2(harvester.Quick)
		sc.Duration = 40
		if _, _, err := harvester.RunScenario(sc, harvester.ExistingTrap, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Scenario2_Proposed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := harvester.Scenario2(harvester.Quick)
		sc.Duration = 40
		if _, _, err := harvester.RunScenario(sc, harvester.Proposed, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDuffingNoiseScenario is the nonlinear/stochastic workload the
// gated benchmark set tracks from PR 3 on: Duffing spring under seeded
// band-limited noise — the configuration whose operating-point-driven
// re-tangents make the proposed engine's refresh machinery the hot
// path, unlike the linear scenarios where stamps are cached.
func benchDuffingNoiseScenario(duration float64) harvester.Scenario {
	sc := harvester.NoiseScenario(duration, 55, 85, 42)
	sc.Cfg.VibNoise.RMS = 2
	sc.Cfg.Microgen.K3 = harvester.DuffingK3Strong
	return sc
}

func BenchmarkDuffingNoise_Proposed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchDuffingNoiseScenario(benchTable1Sim)
		if _, _, err := harvester.RunScenario(sc, harvester.Proposed, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDuffingNoise_Existing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchDuffingNoiseScenario(benchTable1Sim)
		if _, _, err := harvester.RunScenario(sc, harvester.ExistingTrap, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8a_PowerEnvelope(b *testing.B) {
	var res exp.Fig8aResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.Fig8a(harvester.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\nRMS tuned@70=%.1fuW detuned=%.1fuW retuned@71=%.1fuW (paper: 118/dip/117 uW)",
		res.RMSBefore*1e6, res.RMSDetuned*1e6, res.RMSAfter*1e6)
}

func BenchmarkFig8b_SupercapVoltage(b *testing.B) {
	var res exp.FigVcResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.Fig8b(harvester.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\nsim-vs-measured RMSE %.3g V, max %.3g V", res.Comparison.RMSE, res.Comparison.MaxAbs)
}

func BenchmarkFig9_WideRetune(b *testing.B) {
	var res exp.FigVcResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.Fig9(harvester.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\nsim-vs-measured RMSE %.3g V, max %.3g V", res.Comparison.RMSE, res.Comparison.MaxAbs)
}

func BenchmarkAblationABOrder(b *testing.B) {
	var res exp.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.AblationABOrder(2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.String())
}

func BenchmarkAblationPWL(b *testing.B) {
	var res exp.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.AblationPWL(2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.String())
}

func BenchmarkAblationStability(b *testing.B) {
	var res exp.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.AblationStability(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.String())
}

func BenchmarkAblationAccuracy(b *testing.B) {
	var res exp.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.AblationAccuracy(2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.String())
}

// batchSweepGrid is the 64-point design grid (8 coil resistances x 8
// multiplier stage counts) the batch-throughput benchmarks run — the
// parameter-sweep workload the batch layer exists for. Recorded serial
// and pooled so the benchmark history tracks the parallel speedup from
// PR 1 onward.
func batchSweepGrid(duration float64) []batch.Job {
	sc := harvester.ChargeScenario(duration)
	sc.Cfg.InitialVc = 2.5
	spec := batch.SweepSpec{
		Base: batch.Job{Name: "grid", Scenario: sc, Engine: harvester.Proposed},
		Axes: []batch.Axis{
			batch.FloatAxis("rc", []float64{100, 180, 320, 560, 1000, 1800, 3200, 5600},
				func(j *batch.Job, v float64) { j.Scenario.Cfg.Microgen.Rc = v }),
			batch.IntAxis("stages", []int{3, 4, 5, 6, 7, 8, 9, 10},
				func(j *batch.Job, v int) { j.Scenario.Cfg.Dickson.Stages = v }),
		},
	}
	jobs, err := spec.Jobs()
	if err != nil {
		panic(err)
	}
	return jobs
}

func BenchmarkBatchSweep_Serial(b *testing.B) {
	jobs := batchSweepGrid(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := batch.RunSerial(jobs, batch.Options{})
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkBatchSweep_Pooled(b *testing.B) {
	jobs := batchSweepGrid(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := batch.Run(context.Background(), jobs, batch.Options{})
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkBatchSweep_PooledNoReuse is the PR 1 behaviour (fresh
// Jacobian and engine storage per job) kept as the A/B reference for the
// per-worker workspace-reuse path BenchmarkBatchSweep_Pooled now runs.
func BenchmarkBatchSweep_PooledNoReuse(b *testing.B) {
	jobs := batchSweepGrid(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := batch.Run(context.Background(), jobs, batch.Options{NoWorkspaceReuse: true})
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkSweepCache_Cold runs the 64-point design grid against an
// empty result cache — the full simulation cost plus the (negligible)
// hashing and store overhead. Paired with _Warm below it records the
// cache's workload multiplier in the benchmark trajectory.
func BenchmarkSweepCache_Cold(b *testing.B) {
	jobs := batchSweepGrid(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := batch.NewCache(0)
		results := batch.Run(context.Background(), jobs, batch.Options{Cache: cache})
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkSweepCache_Warm repeats the identical grid against a primed
// cache: zero engine runs, every job a content-hash lookup — the cost a
// refinement sweep pays for revisited candidates.
func BenchmarkSweepCache_Warm(b *testing.B) {
	jobs := batchSweepGrid(0.5)
	cache := batch.NewCache(0)
	prime := batch.Run(context.Background(), jobs, batch.Options{Cache: cache})
	for _, r := range prime {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := batch.Run(context.Background(), jobs, batch.Options{Cache: cache})
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			if !r.Cached {
				b.Fatalf("job %s missed the warm cache", r.Name)
			}
		}
	}
}

// benchEnsembleJobs is the seed-ensemble workload
// BenchmarkEnsembleLockstep_Solo runs: K noise realisations of one
// linear design point under dense-spectrum wideband excitation (4096
// tones, the MaxNoiseTones ceiling, where evaluating the excitation
// costs the most per step).
func benchEnsembleJobs(k int, duration float64) []batch.Job {
	jobs := make([]batch.Job, k)
	for i, seed := range batch.Seeds(42, k) {
		sc := harvester.NoiseScenario(duration, 55, 85, seed)
		sc.Cfg.VibNoise.RMS = 2
		sc.Cfg.VibNoise.Tones = 4096
		jobs[i] = batch.Job{Name: "ens", Group: "pt", Seed: seed, Scenario: sc, Engine: harvester.Proposed}
	}
	return jobs
}

// BenchmarkEnsembleLockstep_Solo runs a K=16 seed ensemble serially,
// each member as an ordinary job. The name predates the removal of the
// lockstep engine, which marched the members as one unit; it is kept so
// the committed baseline entry keeps gating this workload.
func BenchmarkEnsembleLockstep_Solo(b *testing.B) {
	jobs := benchEnsembleJobs(16, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := batch.RunSerial(jobs, batch.Options{})
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// benchBistableScenario is the double-well workload the gated benchmark
// set tracks from PR 9 on: inter-well jumps under seeded band-limited
// noise with displacement-dependent coupling — the configuration where
// the retangent policy must survive basin hopping rather than drift
// around one operating point.
func benchBistableScenario(duration float64) harvester.Scenario {
	return harvester.BistableScenario(duration,
		harvester.BistableWellM, harvester.BistableBarrierJ, 120, -3.4e4, 8, 40, 42)
}

func BenchmarkBistable_Proposed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchBistableScenario(benchTable1Sim)
		if _, _, err := harvester.RunScenario(sc, harvester.Proposed, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBistable_Implicit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchBistableScenario(benchTable1Sim)
		if _, _, err := harvester.RunScenario(sc, harvester.ExistingTrap, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBistableBasinReduction isolates the basin-aware ensemble
// reduction (high-orbit fraction, mean transits, per-basin Student-t
// statistics) over a 64-member bistable ensemble: the post-processing
// cost the sweep summary pays per design point, measured apart from the
// simulation itself.
func BenchmarkBistableBasinReduction(b *testing.B) {
	jobs := make([]batch.Job, 64)
	for i, seed := range batch.Seeds(13, 64) {
		sc := benchBistableScenario(0.25)
		sc.Cfg.VibNoise.Seed = seed
		jobs[i] = batch.Job{Name: "bi", Group: "pt", Seed: seed, Scenario: sc, Engine: harvester.Proposed}
	}
	results := batch.RunSerial(jobs, batch.Options{})
	for _, r := range results {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := batch.Ensembles(results)
		if len(points) != 1 || len(points[0].Basins) == 0 {
			b.Fatalf("reduction lost the basins: %+v", points)
		}
	}
}

// warmStepEngine builds the proposed engine on the charge scenario and
// steps it past its start-up transient, so every further Step is a warm
// steady-state step.
func warmStepEngine(b *testing.B) *core.Engine {
	b.Helper()
	sc := harvester.ChargeScenario(1e9) // horizon far beyond any b.N
	sc.Cfg.InitialVc = 2.5
	h, err := harvester.Assemble(sc)
	if err != nil {
		b.Fatal(err)
	}
	eng, ok := h.NewEngine(harvester.Proposed, 1<<20).(*core.Engine)
	if !ok {
		b.Fatal("proposed engine is not a core.Engine")
	}
	if err := eng.Begin(0, sc.Duration); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// BenchmarkWarmStep measures one warm steady-state step of the proposed
// engine — the unit of cost the paper's speedup lives in — with tracing
// off (Engine.Phases nil, no clock reads). Its allocs/op baseline is
// zero, and the CI bench gate (cmd/benchgate vs BENCH_10.json) pins it
// there: any allocation creeping into the hot path fails the gate on
// every machine, independent of CPU speed.
func BenchmarkWarmStep(b *testing.B) {
	eng := warmStepEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOverhead_On is the same warm step with phase timing
// armed (what a traced sweep pays): the engine reads the clock around
// refactorisations and stability scans only, so the steady-state step
// cost should be indistinguishable from BenchmarkWarmStep.
func BenchmarkTraceOverhead_On(b *testing.B) {
	eng := warmStepEngine(b)
	eng.Phases = &core.PhaseTimes{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
