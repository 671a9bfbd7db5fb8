package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// grid64Spec is the wire form of the repo's 64-point benchmark grid
// (bench_test.go batchSweepGrid): coil resistance x multiplier stages
// over the supercap charge scenario.
func grid64Spec(duration float64) wire.Spec {
	return wire.Spec{
		Name:     "grid",
		Scenario: wire.Scenario{Kind: "charge", DurationS: duration, Set: map[string]float64{"initial_vc": 2.5}},
		Axes: []wire.Axis{
			{Kind: wire.AxisFloat, Param: "microgen.rc", Values: []float64{100, 180, 320, 560, 1000, 1800, 3200, 5600}},
			{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6, 7, 8, 9, 10}},
		},
	}
}

func postSweep(t *testing.T, ts *httptest.Server, req wire.SweepRequest) wire.SweepAccepted {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, ts, body)
}

// postBody posts a raw request body and requires 202.
func postBody(t *testing.T, ts *httptest.Server, body []byte) wire.SweepAccepted {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/sweep: %s: %s", resp.Status, msg)
	}
	var acc wire.SweepAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	return acc
}

// streamSweep reads the job's NDJSON stream to completion.
func streamSweep(t *testing.T, ts *httptest.Server, acc wire.SweepAccepted) ([]wire.Result, wire.Summary) {
	t.Helper()
	resp, err := http.Get(ts.URL + acc.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", acc.StreamURL, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var results []wire.Result
	var summary wire.Summary
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if sawSummary {
			t.Fatalf("line after summary: %s", sc.Text())
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case wire.LineResult:
			var r wire.Result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		case wire.LineSummary:
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
		default:
			t.Fatalf("unknown line type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary line")
	}
	return results, summary
}

// metricsByIndex projects the fields that must be bit-identical across
// cold and warm runs (everything except timing/cache markers).
func metricsByIndex(results []wire.Result) map[int][5]string {
	out := make(map[int][5]string, len(results))
	for _, r := range results {
		m := func(f wire.Float) string {
			b, _ := json.Marshal(f)
			return string(b)
		}
		out[r.Index] = [5]string{m(r.Metric), m(r.RMSPower), m(r.MeanPower), m(r.FinalVc), r.Key}
	}
	return out
}

// TestNoLockstepFieldIgnored: the v1 compatibility rule lets a client
// keep sending the retired "no_lockstep" field. The request is
// accepted, and its stream carries the same result lines as the same
// request without the field.
func TestNoLockstepFieldIgnored(t *testing.T) {
	// A 2-point x 4-seed noise ensemble: the seed-grouped shape the
	// field used to select a dispatch for.
	spec := wire.Spec{
		Name: "ens",
		V:    wire.Version,
		Scenario: wire.Scenario{Kind: "noise", DurationS: 0.1,
			NoiseFLoHz: 55, NoiseFHiHz: 85, NoiseSeed: 7},
		Axes: []wire.Axis{
			{Kind: wire.AxisFloat, Param: "microgen.rc", Values: []float64{1000, 2000}},
			{Kind: wire.AxisSeed, BaseSeed: 7, Count: 4},
		},
	}
	plain, err := json.Marshal(wire.SweepRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(plain, []byte("{"), []byte(`{"no_lockstep":true,`), 1)
	run := func(body []byte) map[int]wire.Result {
		ts := httptest.NewServer(New(Options{}).Handler())
		defer ts.Close()
		results, summary := streamSweep(t, ts, postBody(t, ts, body))
		if len(results) != 8 || summary.Failed != 0 {
			t.Fatalf("%d results, summary %+v", len(results), summary)
		}
		byIndex := make(map[int]wire.Result, len(results))
		for _, r := range results {
			r.ElapsedUS = 0 // wall time, the one field allowed to differ
			byIndex[r.Index] = r
		}
		return byIndex
	}
	want, got := run(plain), run(legacy)
	for ix, w := range want {
		a, _ := json.Marshal(w)
		b, _ := json.Marshal(got[ix])
		if !bytes.Equal(a, b) {
			t.Errorf("index %d: with no_lockstep %s, without %s", ix, b, a)
		}
	}
}

// TestSweepEndToEnd is the acceptance path: POST the 64-point grid,
// stream it, then POST the identical spec again against the same server
// process — the warm repeat must do zero engine runs (64/64 cache hits)
// and return bit-identical metrics.
func TestSweepEndToEnd(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := wire.SweepRequest{Spec: grid64Spec(0.25)}
	cold := postSweep(t, ts, req)
	if cold.Jobs != 64 {
		t.Fatalf("grid expands to %d jobs, want 64", cold.Jobs)
	}
	coldResults, coldSummary := streamSweep(t, ts, cold)
	if len(coldResults) != 64 {
		t.Fatalf("streamed %d results, want 64", len(coldResults))
	}
	if coldSummary.Failed != 0 {
		t.Fatalf("cold run failed %d jobs", coldSummary.Failed)
	}

	warm := postSweep(t, ts, req)
	warmResults, warmSummary := streamSweep(t, ts, warm)
	if warmSummary.CacheHits != 64 {
		t.Fatalf("warm repeat hit the cache %d/64 times", warmSummary.CacheHits)
	}
	for _, r := range warmResults {
		if !r.Cached {
			t.Fatalf("warm result %d (%s) not served from cache", r.Index, r.Name)
		}
	}
	coldM, warmM := metricsByIndex(coldResults), metricsByIndex(warmResults)
	for idx, want := range coldM {
		if got, ok := warmM[idx]; !ok || got != want {
			t.Errorf("job %d: warm metrics %v != cold %v", idx, got, want)
		}
	}

	// Status endpoint agrees and serves the result list once done.
	var st wire.JobStatus
	getJSON(t, ts, cold.StatusURL+"?results=1", &st)
	if st.State != wire.StateDone || st.Completed != 64 || len(st.Results) != 64 || st.Summary == nil {
		t.Fatalf("status after completion: %+v", st)
	}

	// The shared cache's counters are visible.
	var cs wire.CacheStats
	getJSON(t, ts, "/v1/cache/stats", &cs)
	if cs.Entries != 64 || cs.Hits < 64 {
		t.Fatalf("cache stats %+v, want 64 entries and >= 64 hits", cs)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIdenticalRequestsSingleflight submits the same spec from
// concurrent clients against one server and asserts the engine ran once
// per design point in total: every duplicate was either a cache hit or
// an in-flight share.
func TestConcurrentIdenticalRequestsSingleflight(t *testing.T) {
	srv := New(Options{MaxActive: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := wire.Spec{
		Name:     "dup",
		Scenario: wire.Scenario{Kind: "charge", DurationS: 0.25, Set: map[string]float64{"initial_vc": 2.5}},
		Axes: []wire.Axis{
			{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4}},
		},
	}
	const clients = 4
	var wg sync.WaitGroup
	summaries := make([]wire.Summary, clients)
	resultSets := make([][]wire.Result, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc := postSweep(t, ts, wire.SweepRequest{Spec: spec})
			resultSets[i], summaries[i] = streamSweep(t, ts, acc)
		}()
	}
	wg.Wait()

	// Engine runs = jobs that were neither cached nor shared. Exactly
	// one per design point across ALL clients.
	fresh := 0
	for _, rs := range resultSets {
		for _, r := range rs {
			if r.Error != "" {
				t.Fatalf("%s: %s", r.Name, r.Error)
			}
			if !r.Cached && !r.Shared {
				fresh++
			}
		}
	}
	if fresh != 2 {
		t.Errorf("%d concurrent identical requests performed %d engine runs, want 2 (one per design point)", clients, fresh)
	}
	// All clients saw bit-identical metrics.
	ref := metricsByIndex(resultSets[0])
	for i := 1; i < clients; i++ {
		m := metricsByIndex(resultSets[i])
		for idx, want := range ref {
			if m[idx] != want {
				t.Errorf("client %d job %d: metrics differ: %v vs %v", i, idx, m[idx], want)
			}
		}
	}
}

// TestStreamIsProgressive subscribes to the stream before completion and
// checks results arrive as NDJSON lines while the sweep is running (the
// handler flushes per chunk) — by observing that the stream delivers all
// lines and the summary terminates it.
func TestStreamIsProgressive(t *testing.T) {
	srv := New(Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	acc := postSweep(t, ts, wire.SweepRequest{Spec: wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 0.25},
		Axes:     []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6}}},
	}})
	results, summary := streamSweep(t, ts, acc)
	if len(results) != 4 || summary.Jobs != 4 {
		t.Fatalf("streamed %d results, summary %+v", len(results), summary)
	}
	// Late subscriber replays the full stream.
	replayed, _ := streamSweep(t, ts, acc)
	if len(replayed) != 4 {
		t.Fatalf("replayed stream delivered %d results", len(replayed))
	}
}

// TestBudgetMaxJobs: a spec expanding beyond the server's job budget is
// rejected up front with 413, before any simulation.
func TestBudgetMaxJobs(t *testing.T) {
	srv := New(Options{MaxJobs: 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(wire.SweepRequest{Spec: grid64Spec(0.25)})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %s, want 413", resp.Status)
	}
	var e wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil ||
		e.Error.Code != wire.CodeTooManyJobs || !strings.Contains(e.Error.Message, "64") {
		t.Fatalf("error envelope %+v, %v", e, err)
	}

	// A hostile axis product (here a 2e9-realisation seed axis in a
	// few hundred bytes of JSON) must be rejected before compilation
	// materialises anything — this request OOM'd the server when the
	// budget was checked post-expansion.
	huge, _ := json.Marshal(wire.SweepRequest{Spec: wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 1},
		Axes: []wire.Axis{
			{Kind: wire.AxisSeed, BaseSeed: 1, Count: 2_000_000_000},
			{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6}},
		},
	}})
	start := time.Now()
	resp2, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge spec: status %s, want 413", resp2.Status)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("huge spec took %v to reject — expansion happened before the budget check", d)
	}
}

// TestBudgetMSOverflowClamped: an absurd budget_ms (a client saying
// "unlimited — clamp me") must mean the server ceiling, not an
// overflowed, already-expired deadline.
func TestBudgetMSOverflowClamped(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	acc := postSweep(t, ts, wire.SweepRequest{
		Spec:     wire.Spec{Scenario: wire.Scenario{Kind: "charge", DurationS: 0.1}},
		BudgetMS: 1 << 53,
	})
	results, summary := streamSweep(t, ts, acc)
	if summary.Failed != 0 || len(results) != 1 || results[0].Error != "" {
		t.Fatalf("huge budget_ms cancelled the sweep: %+v / %+v", results, summary)
	}
}

// TestBudgetDeadline: a tiny wall-clock budget cancels the sweep via
// context; unstarted jobs report errors and the stream still resolves
// with a summary accounting for every job.
func TestBudgetDeadline(t *testing.T) {
	srv := New(Options{Workers: 1, MaxRequestTime: 30 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Long-horizon jobs so the budget expires mid-sweep.
	acc := postSweep(t, ts, wire.SweepRequest{Spec: wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 5},
		Axes:     []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6, 7, 8}}},
	}})
	results, summary := streamSweep(t, ts, acc)
	if len(results) != 6 || summary.Jobs != 6 {
		t.Fatalf("stream accounted for %d results, summary %+v", len(results), summary)
	}
	cancelled := 0
	for _, r := range results {
		if strings.Contains(r.Error, context.DeadlineExceeded.Error()) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no job reported the deadline, budget did not propagate")
	}
}

// TestCancelEndpoint: DELETE cancels a running sweep.
func TestCancelEndpoint(t *testing.T) {
	srv := New(Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	acc := postSweep(t, ts, wire.SweepRequest{Spec: wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 5},
		Axes:     []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6, 7, 8}}},
	}})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+acc.StatusURL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %s", resp.Status)
	}
	results, _ := streamSweep(t, ts, acc)
	cancelled := 0
	for _, r := range results {
		if r.Error != "" {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("cancel did not stop any job")
	}
}

// TestRequestValidation: malformed bodies and unknown fields are 400s
// with the JSON error envelope; unknown jobs are 404s.
func TestRequestValidation(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for name, body := range map[string]string{
		"not json":      "{",
		"unknown field": `{"spec":{"scenario":{"kind":"charge","duration_s":1}},"frobnicate":1}`,
		"unknown kind":  `{"spec":{"scenario":{"kind":"warp","duration_s":1}}}`,
		"bad settle":    `{"spec":{"scenario":{"kind":"charge","duration_s":1}},"settle_frac":1.5}`,
	} {
		resp := post(body)
		var e wire.Error
		err := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil ||
			e.Error.Code != wire.CodeBadRequest || e.Error.Message == "" {
			t.Errorf("%s: status %s envelope %+v err %v", name, resp.Status, e, err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s, want 404", resp.Status)
	}
}

// TestStreamFromCursor: ?from=<n> skips the first n lines of the
// completion-ordered replay — the coordinator's resume path after a
// stream dies mid-shard.
func TestStreamFromCursor(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	acc := postSweep(t, ts, wire.SweepRequest{Spec: wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 0.25},
		Axes:     []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6}}},
	}})
	full, fullSummary := streamSweep(t, ts, acc)
	if len(full) != 4 {
		t.Fatalf("full stream delivered %d results", len(full))
	}

	resp, err := http.Get(ts.URL + acc.StreamURL + "?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tail []wire.Result
	var tailSummary wire.Summary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatal(err)
		}
		if probe.Type == wire.LineSummary {
			if err := json.Unmarshal(sc.Bytes(), &tailSummary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var r wire.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, r)
	}
	if len(tail) != 2 {
		t.Fatalf("?from=2 delivered %d results, want 2", len(tail))
	}
	for i, r := range tail {
		if r.Index != full[2+i].Index || r.Name != full[2+i].Name {
			t.Errorf("resumed line %d = %s (index %d), want replay line %d (%s)",
				i, r.Name, r.Index, 2+i, full[2+i].Name)
		}
	}
	if tailSummary.Jobs != fullSummary.Jobs || tailSummary.V != wire.Version {
		t.Errorf("resumed summary %+v, want jobs %d v %d", tailSummary, fullSummary.Jobs, wire.Version)
	}

	// A cursor at (or past) the end skips straight to the summary.
	respEnd, err := http.Get(ts.URL + acc.StreamURL + "?from=4")
	if err != nil {
		t.Fatal(err)
	}
	defer respEnd.Body.Close()
	lines := 0
	scEnd := bufio.NewScanner(respEnd.Body)
	for scEnd.Scan() {
		lines++
	}
	if lines != 1 {
		t.Errorf("?from=4 delivered %d lines, want summary only", lines)
	}
}

// TestShardIndicesSubset: a request carrying indices runs exactly that
// subset of the row-major expansion, and result lines keep the GLOBAL
// indices with physics bit-identical to the full run — the worker half
// of the shard coordinator protocol.
func TestShardIndicesSubset(t *testing.T) {
	spec := grid64Spec(0.25)
	srvFull := New(Options{})
	tsFull := httptest.NewServer(srvFull.Handler())
	defer tsFull.Close()
	full, _ := streamSweep(t, tsFull, postSweep(t, tsFull, wire.SweepRequest{Spec: spec}))
	fullM := metricsByIndex(full)

	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	indices := []int{0, 7, 13, 42, 63}
	acc := postSweep(t, ts, wire.SweepRequest{Spec: spec, Indices: indices})
	if acc.Jobs != len(indices) {
		t.Fatalf("shard request accepted %d jobs, want %d", acc.Jobs, len(indices))
	}
	shard, summary := streamSweep(t, ts, acc)
	if len(shard) != len(indices) || summary.Jobs != len(indices) {
		t.Fatalf("shard delivered %d results, summary %+v", len(shard), summary)
	}
	got := map[int]bool{}
	for _, r := range shard {
		got[r.Index] = true
	}
	for _, ix := range indices {
		if !got[ix] {
			t.Fatalf("global index %d missing from shard stream (got %v)", ix, got)
		}
	}
	shardM := metricsByIndex(shard)
	for _, ix := range indices {
		if shardM[ix] != fullM[ix] {
			t.Errorf("index %d: shard metrics %v != full-run %v", ix, shardM[ix], fullM[ix])
		}
	}
}

// TestInvalidJobFailsCleanly: a spec that compiles but whose axis drives
// the config invalid fails per job with the validation error, the shared
// cache is untouched by those jobs, and the server goes on serving. A
// 0-stage multiplier is one such config; it once panicked a worker and
// took the server down.
func TestInvalidJobFailsCleanly(t *testing.T) {
	for _, c := range []struct {
		name    string
		spec    wire.Spec
		badName string // the one job that must fail
	}{
		{"noise-band", wire.Spec{
			Scenario: wire.Scenario{Kind: "noise", DurationS: 0.25, NoiseFLoHz: 55, NoiseFHiHz: 85, NoiseSeed: 1},
			Axes: []wire.Axis{
				// FHi below FLo makes the noise spec invalid.
				{Kind: wire.AxisFloat, Param: "noise.fhi_hz", Values: []float64{85, 10}},
			},
		}, "noise[noise.fhi_hz=10]"},
		{"0-stages", wire.Spec{
			Scenario: wire.Scenario{Kind: "charge", DurationS: 0.05},
			Axes:     []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{5, 0}}},
		}, "charge[dickson.stages=0]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := New(Options{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			results, summary := streamSweep(t, ts, postSweep(t, ts, wire.SweepRequest{Spec: c.spec}))
			if summary.Failed != 1 || len(results) != 2 {
				t.Fatalf("%d results, %d failed; want 2, 1", len(results), summary.Failed)
			}
			for _, r := range results {
				if (r.Error != "") != (r.Name == c.badName) {
					t.Errorf("unexpected error state: %+v", r)
				}
			}
			if st := srv.Cache().Stats(); st.Entries != 1 {
				t.Errorf("cache entries = %d, want 1 (the valid job only)", st.Entries)
			}
			var h wire.Health
			getJSON(t, ts, "/healthz", &h)
			if h.Status != "ok" {
				t.Fatalf("health after the failed job: %+v", h)
			}
		})
	}
}

// TestHealthz: liveness probe.
func TestHealthz(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var h wire.Health
	getJSON(t, ts, "/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("health %+v", h)
	}
}

// TestFinishedJobRetention: finished sweeps beyond KeepFinished are
// evicted oldest-first; the newest stays queryable.
func TestFinishedJobRetention(t *testing.T) {
	srv := New(Options{KeepFinished: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := wire.Spec{Scenario: wire.Scenario{Kind: "charge", DurationS: 0.1}}
	var accs []wire.SweepAccepted
	for i := 0; i < 3; i++ {
		acc := postSweep(t, ts, wire.SweepRequest{Spec: spec})
		streamSweep(t, ts, acc) // wait for completion
		accs = append(accs, acc)
	}
	resp, err := http.Get(ts.URL + accs[0].StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest finished job still present: %s", resp.Status)
	}
	var st wire.JobStatus
	getJSON(t, ts, accs[2].StatusURL, &st)
	if st.State != wire.StateDone {
		t.Errorf("newest job not queryable: %+v", st)
	}
}

// TestTracedRunOutlivesCountBound: a traced sweep is not retired by the
// KeepFinished count, so a client that fetches its spans after later
// untraced sweeps finished still gets its trace and its status.
func TestTracedRunOutlivesCountBound(t *testing.T) {
	const keep = 2
	srv := New(Options{KeepFinished: keep})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := wire.Spec{Scenario: wire.Scenario{Kind: "charge", DurationS: 0.05}}
	traced := postSweep(t, ts, wire.SweepRequest{Spec: spec, Trace: tracing.NewTraceID()})
	streamSweep(t, ts, traced)
	var untraced []wire.SweepAccepted
	for i := 0; i < keep+1; i++ {
		acc := postSweep(t, ts, wire.SweepRequest{Spec: spec})
		streamSweep(t, ts, acc)
		untraced = append(untraced, acc)
	}
	var st wire.JobStatus
	getJSON(t, ts, traced.StatusURL, &st)
	if st.State != wire.StateDone {
		t.Fatalf("traced job status: %+v", st)
	}
	if spans := fetchSpans(t, ts, traced.ID, ""); len(spans) == 0 {
		t.Fatal("traced job serves no spans")
	}
	resp, err := http.Get(ts.URL + untraced[0].StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest untraced job still present past the count bound: %s", resp.Status)
	}
}

// TestTracedRunsEvictOldestFirst: finished traced runs stay while the
// spans they hold fit traceBudget; past it the oldest go first, and the
// newest stays even when it alone exceeds the budget.
func TestTracedRunsEvictOldestFirst(t *testing.T) {
	rs := newRuns("t-", 1)
	retire := func(spans int) *Run {
		run := rs.New(1, func() {})
		run.Trace = tracing.New("", 2*traceBudget)
		for i := 0; i < spans; i++ {
			run.Trace.Add("job", "", i, time.Time{}, 0)
		}
		run.Trace.Finish()
		rs.Retire(run.ID)
		return run
	}
	third := traceBudget/3 + 1
	a, b := retire(third), retire(third)
	untraced := rs.New(1, func() {})
	rs.Retire(untraced.ID) // counts against KeepFinished, not the budget
	if rs.Lookup(a.ID) == nil || rs.Lookup(b.ID) == nil {
		t.Fatal("traced runs evicted within the span budget")
	}
	c := retire(third)
	if rs.Lookup(a.ID) != nil {
		t.Error("oldest traced run kept past the span budget")
	}
	if rs.Lookup(b.ID) == nil || rs.Lookup(c.ID) == nil || rs.Lookup(untraced.ID) == nil {
		t.Error("a run newer than the evicted one was dropped")
	}
	big := retire(traceBudget + 1)
	for _, run := range []*Run{b, c} {
		if rs.Lookup(run.ID) != nil {
			t.Errorf("%s kept beside a run that fills the budget alone", run.ID)
		}
	}
	if rs.Lookup(big.ID) == nil {
		t.Error("the newest traced run was evicted")
	}
}

// TestDiskBackedServerCache: a server over a disk cache serves a sweep
// primed by a previous server process (warm start across restarts).
func TestDiskBackedServerCache(t *testing.T) {
	dir := t.TempDir()
	spec := wire.Spec{Scenario: wire.Scenario{Kind: "charge", DurationS: 0.25},
		Axes: []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4}}}}

	c1, err := batch.NewDiskCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(New(Options{Cache: c1}).Handler())
	_, sum1 := streamSweep(t, ts1, postSweep(t, ts1, wire.SweepRequest{Spec: spec}))
	ts1.Close()
	if sum1.CacheHits != 0 {
		t.Fatalf("first process already warm: %+v", sum1)
	}

	c2, err := batch.NewDiskCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(Options{Cache: c2}).Handler())
	defer ts2.Close()
	_, sum2 := streamSweep(t, ts2, postSweep(t, ts2, wire.SweepRequest{Spec: spec}))
	if sum2.CacheHits != 2 {
		t.Fatalf("restarted server hit the disk cache %d/2 times", sum2.CacheHits)
	}
}

// TestServerMatchesDirectSweep: the service path returns the same
// physics as calling batch.Sweep directly — the HTTP layer adds
// transport, never simulation drift.
func TestServerMatchesDirectSweep(t *testing.T) {
	spec := grid64Spec(0.25)
	bspec, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := batch.Sweep(context.Background(), bspec, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	results, _ := streamSweep(t, ts, postSweep(t, ts, wire.SweepRequest{Spec: spec}))

	byIndex := make(map[int]wire.Result, len(results))
	for _, r := range results {
		byIndex[r.Index] = r
	}
	for _, d := range direct {
		r, ok := byIndex[d.Index]
		if !ok {
			t.Fatalf("job %d missing from stream", d.Index)
		}
		if float64(r.Metric) != d.Metric || float64(r.FinalVc) != d.FinalVc ||
			float64(r.RMSPower) != d.RMSPower || float64(r.MeanPower) != d.MeanPower {
			t.Errorf("job %d (%s): served metrics differ from direct sweep", d.Index, d.Name)
		}
	}
}
