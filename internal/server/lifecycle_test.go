package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// scrapeMetrics fetches GET /metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one un-labelled sample from an exposition body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %q not in exposition:\n%s", name, body)
	return 0
}

// TestMetricsEndpointMatchesStream is the tentpole acceptance check at
// the server layer: after a cold + warm run of the same grid, the
// /metrics exposition must agree with the NDJSON summaries — batch job
// and cache-hit counters, sweep-level finished/exec counts, and the
// collect-time cache bridge.
func TestMetricsEndpointMatchesStream(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := wire.SweepRequest{Spec: grid64Spec(0.25)}
	_, coldSum := streamSweep(t, ts, postSweep(t, ts, req))
	_, warmSum := streamSweep(t, ts, postSweep(t, ts, req))
	if warmSum.CacheHits != 64 {
		t.Fatalf("warm repeat hit the cache %d/64 times", warmSum.CacheHits)
	}

	body := scrapeMetrics(t, ts)
	jobs := coldSum.Jobs + warmSum.Jobs
	if got := metricValue(t, body, "harvsim_batch_jobs_total"); got != float64(jobs) {
		t.Errorf("batch_jobs_total = %g, streams said %d", got, jobs)
	}
	hits := coldSum.CacheHits + warmSum.CacheHits
	if got := metricValue(t, body, "harvsim_batch_cache_hits_total"); got != float64(hits) {
		t.Errorf("batch_cache_hits_total = %g, streams said %d", got, hits)
	}
	if got := metricValue(t, body, "harvsim_server_sweeps_finished_total"); got != 2 {
		t.Errorf("sweeps_finished_total = %g, want 2", got)
	}
	if got := metricValue(t, body, "harvsim_server_sweep_exec_seconds_count"); got != 2 {
		t.Errorf("sweep_exec_seconds_count = %g, want 2", got)
	}
	if got := metricValue(t, body, "harvsim_server_sweeps_active"); got != 0 {
		t.Errorf("sweeps_active = %g, want 0", got)
	}
	// The collect-time bridge reads the same counters /v1/cache/stats
	// serves.
	var cs wire.CacheStats
	getJSON(t, ts, "/v1/cache/stats", &cs)
	if got := metricValue(t, body, "harvsim_cache_hits_total"); got != float64(cs.Hits) {
		t.Errorf("cache_hits_total = %g, /v1/cache/stats says %d", got, cs.Hits)
	}
	if got := metricValue(t, body, "harvsim_cache_entries"); got != float64(cs.Entries) {
		t.Errorf("cache_entries = %g, /v1/cache/stats says %d", got, cs.Entries)
	}
}

// TestQueuedSweepSeparatesQueueFromWall: with MaxActive=1 the second
// concurrent sweep waits for the first's slot, and that wait must land
// in queued_ms, not wall_ms — the regression this PR fixes had WallMS
// conflating the two, skewing contended benchmarks.
func TestQueuedSweepSeparatesQueueFromWall(t *testing.T) {
	srv := New(Options{MaxActive: 1, Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := postSweep(t, ts, wire.SweepRequest{Spec: grid64Spec(0.25)})
	second := postSweep(t, ts, wire.SweepRequest{Spec: wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 0.25},
		Axes:     []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4}}},
	}})

	_, sum1 := streamSweep(t, ts, first)
	_, sum2 := streamSweep(t, ts, second)
	if sum1.QueuedMS > 100 {
		t.Errorf("first sweep queued %dms with a free slot", sum1.QueuedMS)
	}
	if sum2.QueuedMS <= 0 {
		t.Errorf("second sweep reports queued_ms=%d behind a %dms sweep", sum2.QueuedMS, sum1.WallMS)
	}
	// The execution wall must not absorb the queue wait: the 2-job
	// second sweep cannot plausibly take as long as its own queue time
	// plus the 64-job first sweep.
	if sum2.WallMS >= sum2.QueuedMS+sum1.WallMS {
		t.Errorf("second sweep wall_ms=%d still conflates queue wait (queued_ms=%d)", sum2.WallMS, sum2.QueuedMS)
	}
	// Status reports end-to-end elapsed as the sum of the two clocks.
	var st wire.JobStatus
	getJSON(t, ts, "/v1/jobs/"+second.ID, &st)
	if st.ElapsedMS != sum2.QueuedMS+sum2.WallMS {
		t.Errorf("status elapsed_ms=%d, want queued+wall=%d", st.ElapsedMS, sum2.QueuedMS+sum2.WallMS)
	}
}

// TestSettleValidatedBeforeExpansion pins the hoisted validation order:
// an invalid settle_frac is rejected before Compile/Jobs do any
// per-grid-point work.
func TestSettleValidatedBeforeExpansion(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(req wire.SweepRequest) (int, string) {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}

	// Ordering proof: this spec cannot compile (unknown axis parameter),
	// so getting the settle_frac error back means the scalar check ran
	// first — before the fix, the compile error won.
	code, msg := post(wire.SweepRequest{
		Spec: wire.Spec{
			Scenario: wire.Scenario{Kind: "charge", DurationS: 0.25},
			Axes:     []wire.Axis{{Kind: wire.AxisFloat, Param: "no.such.param", Values: []float64{1}}},
		},
		SettleFrac: 1.5,
	})
	if code != http.StatusBadRequest || !strings.Contains(msg, "settle_frac") {
		t.Errorf("uncompilable spec + bad settle: %d %q, want 400 mentioning settle_frac", code, msg)
	}

	// A maximum-size grid (exactly the 4096-job budget) with a bad
	// settle_frac returns 400 fast, without cloning 4096 configs.
	start := time.Now()
	code, msg = post(wire.SweepRequest{
		Spec: wire.Spec{
			Scenario: wire.Scenario{Kind: "charge", DurationS: 0.25},
			Axes:     []wire.Axis{{Kind: wire.AxisSeed, BaseSeed: 9, Count: 4096}},
		},
		SettleFrac: -0.5,
	})
	if code != http.StatusBadRequest || !strings.Contains(msg, "settle_frac") {
		t.Errorf("max grid + bad settle: %d %q, want 400 mentioning settle_frac", code, msg)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("max-size grid took %v to reject a scalar field", d)
	}
}

// TestCancelReportsActualState: DELETE on a finished run must say so —
// a client that reads "cancelling" off a completed sweep will poll for
// a transition that never comes.
func TestCancelReportsActualState(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	del := func(id string) map[string]any {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s: %s", id, resp.Status)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Drive the run registry directly so each lifecycle state is exact,
	// not a race against real engine timing.
	newRun := func() (*Run, *bool) {
		cancelled := false
		run := srv.runs.New(1, func() { cancelled = true })
		return run, &cancelled
	}
	running, runningCancelled := newRun()
	done, doneCancelled := newRun()
	done.Finish(wire.Summary{Type: wire.LineSummary, V: wire.Version})
	cancelledRun, _ := newRun()
	cancelledRun.Cancel()
	cancelledRun.Finish(wire.Summary{Type: wire.LineSummary, V: wire.Version})

	cases := []struct {
		name       string
		run        *Run
		wantStatus string
	}{
		{"running", running, "cancelling"},
		{"done", done, "done"},
		{"cancelled then finished", cancelledRun, "done"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := del(tc.run.ID)
			if out["status"] != tc.wantStatus || out["id"] != tc.run.ID {
				t.Errorf("DELETE -> %v, want status %q", out, tc.wantStatus)
			}
		})
	}
	if !*runningCancelled {
		t.Error("DELETE on a running sweep did not invoke its cancel func")
	}
	if *doneCancelled {
		t.Error("DELETE on a finished sweep invoked its cancel func")
	}
}

// TestStreamFromBeyondEnd: a resume cursor past the end of a finished
// stream yields exactly one line — the summary — not an error and not a
// replay.
func TestStreamFromBeyondEnd(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	acc := postSweep(t, ts, wire.SweepRequest{Spec: wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 0.25},
		Axes:     []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6}}},
	}})
	streamSweep(t, ts, acc) // wait for completion

	resp, err := http.Get(ts.URL + acc.StreamURL + "?from=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("from=10 on a 4-result stream delivered %d lines:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &probe); err != nil || probe.Type != wire.LineSummary {
		t.Fatalf("sole line is %q, want the summary", lines[0])
	}
}

// TestStreamMonitorExitsOnDisconnect: a stream handler blocked on an
// open run (result stream and trace stream alike) must exit when the
// client goes away — otherwise every dropped long-poll leaks goroutines
// for the life of the sweep.
func TestStreamMonitorExitsOnDisconnect(t *testing.T) {
	for _, route := range []string{"stream", "trace"} {
		t.Run(route, func(t *testing.T) {
			srv := New(Options{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			// A run that never finishes: the stream can only terminate via
			// client disconnect.
			run := srv.runs.New(1, func() {})
			run.Trace = tracing.New("", 0)

			before := runtime.NumGoroutine()
			const clients = 4
			ctx, cancel := context.WithCancel(context.Background())
			errs := make(chan error, clients)
			for i := 0; i < clients; i++ {
				go func() {
					req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+run.ID+"/"+route, nil)
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						// Blocks until the context cancels the request.
						_, err = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					errs <- err
				}()
			}
			// Let the handlers reach their wait before disconnecting.
			time.Sleep(100 * time.Millisecond)
			cancel()
			for i := 0; i < clients; i++ {
				<-errs
			}

			deadline := time.Now().Add(5 * time.Second)
			for {
				if g := runtime.NumGoroutine(); g <= before {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines %d -> %d: stream handlers leaked after disconnect",
						before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestAdmissionFollowsAcceptanceOrder: with one slot, the sweep accepted
// first runs first, even when the sweep accepted after it reaches the
// queue first. Sweeps are admitted in acceptance order, not in the
// order their goroutines happen to run.
func TestAdmissionFollowsAcceptanceOrder(t *testing.T) {
	srv := New(Options{MaxActive: 1, Workers: 1})
	req := wire.SweepRequest{Spec: wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 0.25},
		Axes:     []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4}}},
	}}
	spec, err := req.Spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	execA := srv.plan(nil, nil, req, jobs)
	execB := srv.plan(nil, nil, req, jobs)
	runA := srv.runs.New(len(jobs), func() {})
	runB := srv.runs.New(len(jobs), func() {})

	// A's jobs are all recorded before A's exec releases its slot, so B,
	// admitted after A, can only return once A's results are complete.
	doneB := make(chan int, 1)
	go func() {
		execB(context.Background(), runB, nil)
		doneB <- len(runA.Results())
	}()
	time.Sleep(50 * time.Millisecond)
	doneA := make(chan struct{})
	go func() {
		execA(context.Background(), runA, nil)
		close(doneA)
	}()
	if n := <-doneB; n != len(jobs) {
		t.Fatalf("sweep B finished with %d of sweep A's %d jobs done; the sweep accepted first must be admitted first", n, len(jobs))
	}
	<-doneA
}

// TestStatusDoneListsEveryResult polls a running sweep's status with
// ?results=1: whenever it reads done, every job is completed and every
// result is listed.
func TestStatusDoneListsEveryResult(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	acc := postSweep(t, ts, wire.SweepRequest{Spec: grid64Spec(0.25)})
	deadline := time.Now().Add(60 * time.Second)
	for polls := 1; ; polls++ {
		var st wire.JobStatus
		getJSON(t, ts, "/v1/jobs/"+acc.ID+"?results=1", &st)
		if st.Completed > st.Jobs {
			t.Fatalf("poll %d: completed %d of %d jobs", polls, st.Completed, st.Jobs)
		}
		if st.State == wire.StateDone {
			if st.Completed != st.Jobs || len(st.Results) != st.Jobs {
				t.Fatalf("poll %d reads done with completed %d and %d results listed, of %d jobs",
					polls, st.Completed, len(st.Results), st.Jobs)
			}
			seen := make(map[int]bool, st.Jobs)
			for _, r := range st.Results {
				seen[r.Index] = true
			}
			if len(seen) != st.Jobs {
				t.Fatalf("done status lists %d distinct indices of %d jobs", len(seen), st.Jobs)
			}
			return
		}
		if len(st.Results) != 0 {
			t.Fatalf("poll %d lists %d results before done", polls, len(st.Results))
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep still %q after %d polls", st.State, polls)
		}
	}
}
