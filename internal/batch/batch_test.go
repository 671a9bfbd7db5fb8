package batch

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"harvsim/internal/blocks"
	"harvsim/internal/harvester"
)

// chargeJob is a short non-autonomous charge run from a working point —
// cheap enough to fan out by the dozen in tests.
func chargeJob(duration float64) Job {
	sc := harvester.ChargeScenario(duration)
	sc.Cfg.InitialVc = 2.5
	return Job{Scenario: sc, Engine: harvester.Proposed}
}

func TestSweepExpansion(t *testing.T) {
	spec := SweepSpec{
		Base: Job{Name: "base", Scenario: harvester.ChargeScenario(1)},
		Axes: []Axis{
			FloatAxis("rc", []float64{100, 200}, func(j *Job, v float64) {
				j.Scenario.Cfg.Microgen.Rc = v
			}),
			IntAxis("stages", []int{3, 4, 5}, func(j *Job, v int) {
				j.Scenario.Cfg.Dickson.Stages = v
			}),
		},
	}
	if got := spec.Size(); got != 6 {
		t.Fatalf("Size = %d, want 6", got)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Fatalf("expanded %d jobs, want 6", len(jobs))
	}
	// Row-major: last axis fastest.
	wantNames := []string{
		"base[rc=100 stages=3]", "base[rc=100 stages=4]", "base[rc=100 stages=5]",
		"base[rc=200 stages=3]", "base[rc=200 stages=4]", "base[rc=200 stages=5]",
	}
	for i, j := range jobs {
		if j.Name != wantNames[i] {
			t.Fatalf("job %d name = %q, want %q", i, j.Name, wantNames[i])
		}
	}
	if jobs[0].Scenario.Cfg.Microgen.Rc != 100 || jobs[5].Scenario.Cfg.Microgen.Rc != 200 {
		t.Fatalf("rc axis not applied: %g, %g",
			jobs[0].Scenario.Cfg.Microgen.Rc, jobs[5].Scenario.Cfg.Microgen.Rc)
	}
	if jobs[2].Scenario.Cfg.Dickson.Stages != 5 || jobs[3].Scenario.Cfg.Dickson.Stages != 3 {
		t.Fatalf("stages axis not applied")
	}
}

func TestSweepExpansionNoAxes(t *testing.T) {
	jobs, err := SweepSpec{Base: chargeJob(1)}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("axisless sweep expanded to %d jobs, want 1", len(jobs))
	}
}

func TestSweepEmptyAxisRejected(t *testing.T) {
	_, err := SweepSpec{Base: chargeJob(1), Axes: []Axis{{Name: "empty"}}}.Jobs()
	if err == nil {
		t.Fatal("empty axis must be rejected")
	}
}

// TestJobsAtMatchesJobs pins the selective expansion against the full
// one: the shard coordinator sends workers index subsets, and the jobs a
// worker materialises via JobsAt must be identical — name, group, seed
// and content-addressed identity — to the same indices of Jobs().
func TestJobsAtMatchesJobs(t *testing.T) {
	spec := SweepSpec{
		Base: Job{Name: "grid", Scenario: harvester.ChargeScenario(1)},
		Axes: []Axis{
			FloatAxis("rc", []float64{100, 200, 300}, func(j *Job, v float64) {
				j.Scenario.Cfg.Microgen.Rc = v
			}),
			SeedAxis("seed", []uint64{1, 2}, func(j *Job, s uint64) {
				j.Scenario.Cfg.VibNoise.Seed = s
			}),
			IntAxis("stages", []int{3, 4}, func(j *Job, v int) {
				j.Scenario.Cfg.Dickson.Stages = v
			}),
		},
	}
	all, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	indices := []int{0, 3, 7, len(all) - 1}
	subset, err := spec.JobsAt(indices)
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != len(indices) {
		t.Fatalf("JobsAt expanded %d jobs, want %d", len(subset), len(indices))
	}
	opt := Options{}
	for i, gi := range indices {
		got, want := subset[i], all[gi]
		if got.Name != want.Name || got.Group != want.Group || got.Seed != want.Seed {
			t.Fatalf("JobsAt[%d] labels = (%q,%q,%d), want Jobs[%d] = (%q,%q,%d)",
				i, got.Name, got.Group, got.Seed, gi, want.Name, want.Group, want.Seed)
		}
		if KeyOf(got, opt) != KeyOf(want, opt) {
			t.Fatalf("JobsAt[%d] identity differs from Jobs[%d]", i, gi)
		}
	}
	for _, bad := range [][]int{{-1}, {len(all)}} {
		if _, err := spec.JobsAt(bad); err == nil {
			t.Fatalf("JobsAt(%v) must reject out-of-range index", bad)
		}
	}
}

// TestKeys pins the exported key-string list the coordinator hashes:
// cacheable jobs yield their KeyOf hex, uncacheable jobs yield "".
func TestKeys(t *testing.T) {
	jobs := []Job{chargeJob(1), chargeJob(2)}
	jobs[1].Probe = func(h *harvester.Harvester, eng harvester.Engine) {} // side effects → uncacheable
	keys := Keys(jobs, Options{})
	if keys[0] != KeyOf(jobs[0], Options{}).String() {
		t.Fatalf("Keys[0] = %q, want KeyOf hex", keys[0])
	}
	if keys[1] != "" {
		t.Fatalf("Keys[1] = %q for uncacheable job, want empty", keys[1])
	}
}

func TestSweepCloneNoAliasing(t *testing.T) {
	base := Job{Scenario: harvester.Scenario1(harvester.Quick)}
	spec := SweepSpec{
		Base: base,
		Axes: []Axis{FloatAxis("hz", []float64{70.5, 71, 71.5}, func(j *Job, v float64) {
			j.Scenario.Shifts[0].Hz = v
		})},
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if base.Scenario.Shifts[0].Hz != 71 {
		t.Fatalf("base scenario mutated through a sweep point: %+v", base.Scenario.Shifts)
	}
	for i, want := range []float64{70.5, 71, 71.5} {
		if got := jobs[i].Scenario.Shifts[0].Hz; got != want {
			t.Fatalf("job %d shift = %g, want %g (aliased Shifts?)", i, got, want)
		}
	}
}

// TestPooledMatchesSerial is the determinism contract: a pooled run must
// produce bit-identical physics to the serial reference, job for job.
func TestPooledMatchesSerial(t *testing.T) {
	spec := SweepSpec{
		Base: chargeJob(0.4),
		Axes: []Axis{FloatAxis("rc", []float64{100, 250, 500, 1000, 2000, 4000},
			func(j *Job, v float64) { j.Scenario.Cfg.Microgen.Rc = v })},
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	serial := RunSerial(jobs, Options{})
	pooled := Run(context.Background(), jobs, Options{Workers: 8})
	if len(serial) != len(pooled) {
		t.Fatalf("length mismatch %d vs %d", len(serial), len(pooled))
	}
	for i := range serial {
		s, p := serial[i], pooled[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("job %d failed: serial=%v pooled=%v", i, s.Err, p.Err)
		}
		if p.Index != i || p.Name != s.Name {
			t.Fatalf("job %d out of order: index=%d name=%q", i, p.Index, p.Name)
		}
		if math.Float64bits(s.RMSPower) != math.Float64bits(p.RMSPower) ||
			math.Float64bits(s.FinalVc) != math.Float64bits(p.FinalVc) {
			t.Fatalf("job %d metrics differ: serial (%v, %v) pooled (%v, %v)",
				i, s.RMSPower, s.FinalVc, p.RMSPower, p.FinalVc)
		}
		if len(s.FinalState) != len(p.FinalState) {
			t.Fatalf("job %d state length differs", i)
		}
		for k := range s.FinalState {
			if math.Float64bits(s.FinalState[k]) != math.Float64bits(p.FinalState[k]) {
				t.Fatalf("job %d state[%d] differs: %v vs %v",
					i, k, s.FinalState[k], p.FinalState[k])
			}
		}
		if s.Stats.Steps != p.Stats.Steps {
			t.Fatalf("job %d step counts differ: %d vs %d", i, s.Stats.Steps, p.Stats.Steps)
		}
	}
}

// TestFinalVcIgnoresDecimation: FinalVc is the voltage at the horizon
// and the MCU reads the latest observed Vc, so neither depends on how
// sparsely the traces keep samples. The Table I charge and a shortened
// scenario 1 (the MCU wakes, measures and retunes inside it) give the
// same FinalVc and FinalState bits at decimation 1 and 1<<20, under the
// proposed engine and the trapezoidal baseline.
func TestFinalVcIgnoresDecimation(t *testing.T) {
	s1 := harvester.Scenario1(harvester.Quick)
	s1.Duration = 3
	s1.Shifts = []harvester.FreqShift{{T: 1.5, Hz: 71}}
	s1.Cfg.MCU.Watchdog = 1
	for _, sc := range []harvester.Scenario{harvester.ChargeScenario(2), s1} {
		for _, kind := range []harvester.EngineKind{harvester.Proposed, harvester.ExistingTrap} {
			var jobs []Job
			for _, dec := range []int{1, 1 << 20} {
				jobs = append(jobs, Job{Scenario: sc.Clone(), Engine: kind, Decimate: dec})
			}
			res := RunSerial(jobs, Options{})
			all, sparse := res[0], res[1]
			if all.Err != nil || sparse.Err != nil {
				t.Fatalf("%s/%v: %v, %v", sc.Name, kind, all.Err, sparse.Err)
			}
			if math.Float64bits(all.FinalVc) != math.Float64bits(sparse.FinalVc) {
				t.Errorf("%s/%v: FinalVc %v at decimation 1, %v at 1<<20", sc.Name, kind, all.FinalVc, sparse.FinalVc)
			}
			for k := range all.FinalState {
				if math.Float64bits(all.FinalState[k]) != math.Float64bits(sparse.FinalState[k]) {
					t.Errorf("%s/%v: state[%d] %v at decimation 1, %v at 1<<20",
						sc.Name, kind, k, all.FinalState[k], sparse.FinalState[k])
				}
			}
		}
	}
}

// TestErrorCaptureIsolated: an invalid job fails with its validation
// error, never a panic in the worker, and the jobs around it run. A
// multiplier stage count outside [1, blocks.MaxDicksonStages] is one
// such error.
func TestErrorCaptureIsolated(t *testing.T) {
	for _, c := range []struct {
		name  string
		spoil func(*harvester.Scenario)
		msg   string // a substring of the job's error
	}{
		{"shift-beyond-horizon", func(sc *harvester.Scenario) { sc.Shifts = []harvester.FreqShift{{T: 5, Hz: 71}} }, "horizon"},
		{"0-stages", func(sc *harvester.Scenario) { sc.Cfg.Dickson.Stages = 0 }, "stage count"},
		{"too-many-stages", func(sc *harvester.Scenario) { sc.Cfg.Dickson.Stages = blocks.MaxDicksonStages + 1 }, "stage count"},
	} {
		t.Run(c.name, func(t *testing.T) {
			good := chargeJob(0.3)
			bad := chargeJob(0.3)
			c.spoil(&bad.Scenario)
			results := Run(context.Background(), []Job{good, bad, good}, Options{Workers: 3})
			if results[0].Err != nil || results[2].Err != nil {
				t.Fatalf("healthy jobs failed: %v, %v", results[0].Err, results[2].Err)
			}
			if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), c.msg) {
				t.Fatalf("invalid job's error %v does not name %q", results[1].Err, c.msg)
			}
			if results[0].RMSPower <= 0 || results[2].RMSPower <= 0 {
				t.Fatalf("healthy jobs produced no power metric")
			}
		})
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = chargeJob(0.3)
	}
	// Cancel from inside the first job: with a single worker, jobs 1..7
	// are deterministically still unscheduled at that moment.
	jobs[0].Probe = func(h *harvester.Harvester, eng harvester.Engine) { cancel() }
	results := Run(ctx, jobs, Options{Workers: 1})
	if results[0].Err != nil {
		t.Fatalf("in-flight job should complete: %v", results[0].Err)
	}
	cancelled := 0
	for _, r := range results[1:] {
		if r.Err == context.Canceled {
			cancelled++
		}
	}
	if cancelled != len(jobs)-1 {
		t.Fatalf("cancelled %d of %d pending jobs, want all", cancelled, len(jobs)-1)
	}
}

func TestMetricAndProbeHooks(t *testing.T) {
	job := chargeJob(0.4)
	var observed int
	job.Probe = func(h *harvester.Harvester, eng harvester.Engine) {
		eng.Observe(func(tm float64, x, y []float64) { observed++ })
	}
	job.Metric = func(h *harvester.Harvester, eng harvester.Engine) float64 {
		return h.Energy.Harvested
	}
	res := RunSerial([]Job{job}, Options{})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if observed == 0 {
		t.Fatal("probe-attached observer never fired")
	}
	if res.Metric != res.Energy.Harvested || res.Metric <= 0 {
		t.Fatalf("custom metric not captured: metric=%v harvested=%v",
			res.Metric, res.Energy.Harvested)
	}
}

func TestKeepOption(t *testing.T) {
	job := chargeJob(0.3)
	dropped := RunSerial([]Job{job}, Options{})[0]
	if dropped.Harvester != nil || dropped.Engine != nil {
		t.Fatal("artifacts retained without Keep")
	}
	kept := RunSerial([]Job{job}, Options{Keep: true})[0]
	if kept.Harvester == nil || kept.Engine == nil {
		t.Fatal("Keep did not retain artifacts")
	}
	if kept.Harvester.VcTrace.Len() == 0 {
		t.Fatal("kept harvester has no traces")
	}
}

func TestSummaryAndTop(t *testing.T) {
	spec := SweepSpec{
		Base: chargeJob(0.4),
		Axes: []Axis{FloatAxis("rc", []float64{250, 500, 4000},
			func(j *Job, v float64) { j.Scenario.Cfg.Microgen.Rc = v })},
	}
	results, err := Sweep(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(results)
	if s.Jobs != 3 || s.Failed != 0 {
		t.Fatalf("summary counts wrong: %+v", s)
	}
	if s.ArgMaxMetric < 0 || s.MaxMetric < s.MinMetric {
		t.Fatalf("summary extrema wrong: %+v", s)
	}
	if results[s.ArgMaxMetric].Metric != s.MaxMetric {
		t.Fatalf("argmax does not attain max")
	}
	top := Top(results, 2)
	if len(top) != 2 || top[0].Metric < top[1].Metric {
		t.Fatalf("Top misordered: %+v", top)
	}
	if top[0].Metric != s.MaxMetric {
		t.Fatalf("Top[0] is not the argmax")
	}
	if out := Table(top); !strings.Contains(out, top[0].Name) {
		t.Fatalf("table missing winner: %s", out)
	}
	if out := s.String(); !strings.Contains(out, "jobs 3") {
		t.Fatalf("summary render wrong: %s", out)
	}
}

// TestPoolSpeedup is the acceptance gate for the concurrent runner: on a
// machine with at least 4 cores, a 64-point sweep must finish in under
// half the serial wall-clock (the paper's speedup story, applied to the
// sweep dimension instead of the per-step dimension).
func TestPoolSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short")
	}
	if raceEnabled {
		t.Skip("speedup gate skipped under the race detector (instrumentation serialises the pool)")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 cores for the speedup gate, have %d", runtime.NumCPU())
	}
	spec := SweepSpec{
		Base: chargeJob(1.0),
		Axes: []Axis{
			FloatAxis("rc", []float64{100, 180, 320, 560, 1000, 1800, 3200, 5600},
				func(j *Job, v float64) { j.Scenario.Cfg.Microgen.Rc = v }),
			IntAxis("stages", []int{3, 4, 5, 6, 7, 8, 9, 10},
				func(j *Job, v int) { j.Scenario.Cfg.Dickson.Stages = v }),
		},
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 64 {
		t.Fatalf("grid is %d points, want 64", len(jobs))
	}
	t0 := time.Now()
	serial := RunSerial(jobs, Options{})
	serialWall := time.Since(t0)
	t0 = time.Now()
	pooled := Run(context.Background(), jobs, Options{})
	pooledWall := time.Since(t0)
	for i := range jobs {
		if serial[i].Err != nil || pooled[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, serial[i].Err, pooled[i].Err)
		}
		if math.Float64bits(serial[i].FinalVc) != math.Float64bits(pooled[i].FinalVc) {
			t.Fatalf("job %d pooled result drifted from serial", i)
		}
	}
	t.Logf("serial %v, pooled %v (%.2fx) on %d cores",
		serialWall, pooledWall, float64(serialWall)/float64(pooledWall), runtime.NumCPU())
	if pooledWall >= serialWall/2 {
		t.Fatalf("pooled %v not under 0.5x serial %v", pooledWall, serialWall)
	}
}
