package batch

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"harvsim/internal/harvester"
)

// counted wires a counter into the job's fresh-run path via a pure
// (MetricKey-declared) metric: the closure only executes on a real
// simulation, never on a cache or singleflight hit, so its call count is
// the number of engine runs the batch performed.
func counted(job Job, count *atomic.Int64) Job {
	dur := job.Scenario.Duration
	job.MetricKey = "rms-counted"
	job.Metric = func(h *harvester.Harvester, eng harvester.Engine) float64 {
		count.Add(1)
		settled := h.PMultIn.Slice(dur/3, dur)
		return settled.RMS()
	}
	return job
}

// countingJob is the cache test scenario with an engine-run counter.
func countingJob(count *atomic.Int64) Job {
	return counted(Job{Scenario: cacheScenario(), Engine: harvester.Proposed}, count)
}

// seedEnsembleJobs builds one design point's seed ensemble: k jobs
// sharing a Group and differing only in the noise realisation seed.
func seedEnsembleJobs(k int, duration float64, kind harvester.EngineKind) []Job {
	jobs := make([]Job, k)
	for i, seed := range Seeds(7, k) {
		sc := harvester.NoiseScenario(duration, 55, 85, seed)
		jobs[i] = Job{
			Name:     "ens",
			Group:    "point-0",
			Seed:     seed,
			Scenario: sc,
			Engine:   kind,
		}
	}
	return jobs
}

// TestSingleflightDedupesWithinRun submits many identical jobs through a
// wide pool and asserts exactly one engine run happened: every other job
// either hit the cache (leader finished before it looked) or waited on
// the in-flight computation (Shared).
func TestSingleflightDedupesWithinRun(t *testing.T) {
	var engineRuns atomic.Int64
	const n = 16
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = countingJob(&engineRuns)
	}
	c := NewCache(0)
	results := Run(context.Background(), jobs, Options{Workers: 8, Cache: c})

	if got := engineRuns.Load(); got != 1 {
		t.Fatalf("identical jobs ran %d engines, want exactly 1 (singleflight)", got)
	}
	var fresh, shared, cached int
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		switch {
		case r.Shared:
			shared++
			if !r.Cached {
				t.Errorf("job %d: Shared without Cached", r.Index)
			}
		case r.Cached:
			cached++
		default:
			fresh++
		}
		samePhysics(t, "dedup member", r, results[0])
	}
	if fresh != 1 {
		t.Errorf("fresh runs %d, want 1 (shared %d, cached %d)", fresh, shared, cached)
	}
	st := c.Stats()
	if st.Shared != int64(shared) {
		t.Errorf("stats.Shared = %d, want %d", st.Shared, shared)
	}
	if st.Hits+st.Misses != n {
		t.Errorf("lookups %d, want %d", st.Hits+st.Misses, n)
	}
}

// TestSingleflightDedupesAcrossRuns is the sweep-server situation:
// concurrent Run calls (client requests) over one shared cache with the
// same job identities — each identity must reach the engine once in
// total. A design point's seed ensemble is held to the same rule: its
// members are ordinary jobs, so K seeds cost exactly K engine runs
// however many clients request them at once.
func TestSingleflightDedupesAcrossRuns(t *testing.T) {
	const seeds = 4
	cases := []struct {
		name    string
		clients int
		jobs    func(count *atomic.Int64) []Job
		want    int64
	}{
		{"identical", 4, func(count *atomic.Int64) []Job {
			return []Job{countingJob(count)}
		}, 1},
		{"seed-ensemble", 2, func(count *atomic.Int64) []Job {
			jobs := seedEnsembleJobs(seeds, 0.25, harvester.Proposed)
			for i := range jobs {
				jobs[i] = counted(jobs[i], count)
			}
			return jobs
		}, seeds},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var engineRuns atomic.Int64
			jobs := tc.jobs(&engineRuns)
			c := NewCache(0)
			runs := make([][]Result, tc.clients)
			var wg sync.WaitGroup
			for i := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					runs[i] = Run(context.Background(), jobs, Options{Workers: 1, Cache: c})
				}()
			}
			wg.Wait()
			if got := engineRuns.Load(); got != tc.want {
				t.Fatalf("%d concurrent requests for %d identities ran %d engines, want %d",
					tc.clients, len(jobs), got, tc.want)
			}
			for _, results := range runs {
				for i, r := range results {
					samePhysics(t, "cross-run member", r, runs[0][i])
				}
			}
		})
	}
}

// TestFlightReprobe pins the miss-then-lead window: a caller whose Get
// missed but that acquires leadership after the previous leader has
// already published must serve the published snapshot (as shared), not
// lead a redundant run.
func TestFlightReprobe(t *testing.T) {
	c := NewCache(0)
	var key CacheKey
	key[0] = 7
	c.Put(key, Snapshot{Metric: 42})
	snap, err, shared := c.flightDo(key, func() (Snapshot, error) {
		t.Error("flightDo re-ran an already-published computation")
		return Snapshot{}, nil
	})
	if !shared || err != nil || snap.Metric != 42 {
		t.Fatalf("re-probe: shared=%v err=%v snap=%+v", shared, err, snap)
	}
	if st := c.Stats(); st.Shared != 1 {
		t.Errorf("stats.Shared = %d, want 1", st.Shared)
	}
}

// TestSingleflightPropagatesError: followers of a failing leader get the
// leader's error (identical identities fail identically) and nothing is
// stored.
func TestSingleflightPropagatesError(t *testing.T) {
	sc := cacheScenario()
	sc.Shifts = []harvester.FreqShift{{T: 99, Hz: 71}} // outside the 0.25 s horizon
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Scenario: sc, Engine: harvester.Proposed}
	}
	c := NewCache(0)
	results := Run(context.Background(), jobs, Options{Workers: 4, Cache: c})
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("job %d: expected schedule error", r.Index)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("failed jobs stored %d cache entries", st.Entries)
	}
}

// TestInvalidConfigNeverTouchesCache is the regression test for
// validate-before-cache: an invalid Config fails before any key is
// computed, so the cache sees no lookup, no store, and a subsequent
// valid job is unaffected.
func TestInvalidConfigNeverTouchesCache(t *testing.T) {
	bad := cacheScenario()
	bad.Cfg.Microgen.K3 = math.NaN()
	c := NewCache(0)
	res := RunSerial([]Job{{Scenario: bad, Engine: harvester.Proposed}}, Options{Cache: c})[0]
	if res.Err == nil {
		t.Fatal("NaN config did not fail validation")
	}
	if res.Cached {
		t.Fatal("invalid job claims to be cached")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("invalid job touched the cache: %+v", st)
	}

	// The same failure without a cache reports the identical error, so
	// the early validation did not change the no-cache contract.
	plain := RunSerial([]Job{{Scenario: bad, Engine: harvester.Proposed}}, Options{})[0]
	if plain.Err == nil || plain.Err.Error() != res.Err.Error() {
		t.Fatalf("validation error differs with/without cache: %v vs %v", plain.Err, res.Err)
	}
}

// TestCacheEvictionCounter pins the new Evictions counter: inserting
// beyond capacity increments it by exactly the overflow.
func TestCacheEvictionCounter(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 5; i++ {
		var key CacheKey
		key[0] = byte(i)
		c.Put(key, Snapshot{})
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.Evictions)
	}
}

// TestOnResultStreamsEveryJob: the streaming hook fires exactly once per
// job — including jobs cancelled before starting — and each callback
// carries the same Result the ordered slice reports.
func TestOnResultStreamsEveryJob(t *testing.T) {
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Scenario: cacheScenario(), Engine: harvester.Proposed}
	}
	var mu sync.Mutex
	seen := map[int]Result{}
	opt := Options{Workers: 3, OnResult: func(r Result) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[r.Index]; dup {
			t.Errorf("OnResult fired twice for job %d", r.Index)
		}
		seen[r.Index] = r
	}}
	results := Run(context.Background(), jobs, opt)
	if len(seen) != len(jobs) {
		t.Fatalf("OnResult fired %d times, want %d", len(seen), len(jobs))
	}
	for i, r := range results {
		if seen[i].Err != nil || r.Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, seen[i].Err, r.Err)
		}
		samePhysics(t, "callback vs slice", seen[i], r)
	}

	// Cancelled-before-start jobs are reported too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mu.Lock()
	seen = map[int]Result{}
	mu.Unlock()
	Run(ctx, jobs, opt)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(jobs) {
		t.Fatalf("cancelled run reported %d results via OnResult, want %d", len(seen), len(jobs))
	}
	for i := range jobs {
		if seen[i].Err == nil {
			t.Errorf("cancelled job %d reported no error", i)
		}
	}
}

// TestPoolCacheRecycles: pools handed back are handed out again.
func TestPoolCacheRecycles(t *testing.T) {
	pc := NewPoolCache()
	p1 := pc.Get()
	pc.Put(p1)
	if got := pc.Get(); got != p1 {
		t.Error("PoolCache did not recycle the returned pool")
	}
	// And the batch path runs cleanly with a shared pool cache.
	jobs := []Job{{Scenario: cacheScenario(), Engine: harvester.Proposed}}
	ref := RunSerial(jobs, Options{})[0]
	for i := 0; i < 2; i++ {
		r := Run(context.Background(), jobs, Options{Pools: pc})[0]
		if r.Err != nil {
			t.Fatalf("pooled run %d: %v", i, r.Err)
		}
		samePhysics(t, "pool-cache run", r, ref)
	}
}
