package batch

import (
	"context"
	"strings"
	"testing"

	"harvsim/internal/harvester"
	"harvsim/internal/metrics"
)

// TestMetricsAccumulateAcrossRuns pins the instrument semantics the
// service layers scrape: counters accumulate across Run calls on one
// bundle, every fresh run (seed members included) is one engine
// observation, and cache hits don't re-observe the engine histogram.
func TestMetricsAccumulateAcrossRuns(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	cache := NewCache(0)
	jobs := seedEnsembleJobs(4, 0.25, harvester.Proposed)
	opt := Options{Cache: cache, Metrics: m}

	RunSerial(jobs, opt)
	if m.Jobs.Value() != 4 || m.Failed.Value() != 0 || m.CacheHits.Value() != 0 {
		t.Fatalf("cold: jobs=%d failed=%d hits=%d", m.Jobs.Value(), m.Failed.Value(), m.CacheHits.Value())
	}
	if m.EngineRunSeconds.Count() != 4 {
		t.Errorf("cold: engine observations = %d, want 4 (one per seed member)", m.EngineRunSeconds.Count())
	}

	// Warm rerun: four cache hits, no new engine marches.
	RunSerial(jobs, opt)
	if m.Jobs.Value() != 8 || m.CacheHits.Value() != 4 {
		t.Errorf("warm: jobs=%d hits=%d", m.Jobs.Value(), m.CacheHits.Value())
	}
	if m.EngineRunSeconds.Count() != 4 {
		t.Errorf("warm: engine observations = %d, want still 4", m.EngineRunSeconds.Count())
	}

	// A pre-cancelled pooled run reports every job as failed — the
	// stream-accounting contract extends to the counters.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	Run(ctx, jobs, opt)
	if m.Jobs.Value() != 12 || m.Failed.Value() != 4 {
		t.Errorf("cancelled: jobs=%d failed=%d", m.Jobs.Value(), m.Failed.Value())
	}

	// The registry exposes all of it under the harvsim_batch_* namespace.
	var b strings.Builder
	if err := reg.Collect(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"harvsim_batch_jobs_total 12",
		"harvsim_batch_failed_total 4",
		"harvsim_batch_cache_hits_total 4",
		"harvsim_batch_engine_run_seconds_count 4",
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
}

// TestMetricsNilIsFree: the zero Options must not panic anywhere on the
// dispatch path (fresh runs, cancelled tail).
func TestMetricsNilIsFree(t *testing.T) {
	jobs := seedEnsembleJobs(2, 0.1, harvester.Proposed)
	RunSerial(jobs, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	Run(ctx, jobs, Options{})
}
