package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harvsim/internal/server"
	"harvsim/internal/wire"
)

// grid64 is the repo's 64-point benchmark grid in wire form.
func grid64(duration float64) wire.Spec {
	return wire.Spec{
		Name:     "grid",
		V:        wire.Version,
		Scenario: wire.Scenario{Kind: "charge", DurationS: duration, Set: map[string]float64{"initial_vc": 2.5}},
		Axes: []wire.Axis{
			{Kind: wire.AxisFloat, Param: "microgen.rc", Values: []float64{100, 180, 320, 560, 1000, 1800, 3200, 5600}},
			{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6, 7, 8, 9, 10}},
		},
	}
}

// startFleet launches n real single-host sweep servers.
func startFleet(t *testing.T, n int) ([]*httptest.Server, []string) {
	t.Helper()
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(server.New(server.Options{Workers: 1}).Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	return servers, urls
}

func post(t *testing.T, base string, req wire.SweepRequest) wire.SweepAccepted {
	t.Helper()
	body, _ := json.Marshal(req)
	return postBody(t, base, body)
}

// postBody posts a raw request body and requires 202.
func postBody(t *testing.T, base string, body []byte) wire.SweepAccepted {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
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

// stream reads an NDJSON stream to completion; onLine (optional) fires
// after every result line with the running count.
func stream(t *testing.T, base string, acc wire.SweepAccepted, onLine func(n int)) ([]wire.Result, wire.Summary) {
	t.Helper()
	resp, err := http.Get(base + acc.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", acc.StreamURL, resp.Status)
	}
	var results []wire.Result
	var summary wire.Summary
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
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
			if onLine != nil {
				onLine(len(results))
			}
		case wire.LineSummary:
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
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

// identityFields projects the bit-identity fields per global index.
func identityFields(results []wire.Result) map[int][5]string {
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

// singleHostBaseline runs the spec on one fresh worker directly.
func singleHostBaseline(t *testing.T, spec wire.Spec) ([]wire.Result, wire.Summary) {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Options{Workers: 1}).Handler())
	defer ts.Close()
	return stream(t, ts.URL, post(t, ts.URL, wire.SweepRequest{Spec: spec}), nil)
}

// TestCoordinatorMatchesSingleHost: a 3-worker coordinated sweep
// delivers every global index exactly once with metrics bit-identical
// to a single-host run, and a repeat sweep through the coordinator is
// all cache hits (placement by content key gives each worker a warm
// cache for exactly its shard).
func TestCoordinatorMatchesSingleHost(t *testing.T) {
	spec := grid64(0.25)
	baseline, baseSummary := singleHostBaseline(t, spec)

	_, urls := startFleet(t, 3)
	coord := httptest.NewServer(New(Options{Workers: urls}).Handler())
	defer coord.Close()

	results, summary := stream(t, coord.URL, post(t, coord.URL, wire.SweepRequest{Spec: spec}), nil)
	if len(results) != 64 || summary.Jobs != 64 || summary.Failed != 0 {
		t.Fatalf("coordinated sweep: %d results, summary %+v", len(results), summary)
	}
	if summary.Workers != 3 || summary.Resharded != 0 || summary.LostWorkers != 0 {
		t.Errorf("healthy fleet summary has loss counters: %+v", summary)
	}
	if summary.V != wire.Version {
		t.Errorf("summary v = %d, want %d", summary.V, wire.Version)
	}
	seen := map[int]int{}
	for _, r := range results {
		seen[r.Index]++
	}
	for ix := 0; ix < 64; ix++ {
		if seen[ix] != 1 {
			t.Fatalf("index %d delivered %d times, want exactly once", ix, seen[ix])
		}
	}
	base, got := identityFields(baseline), identityFields(results)
	for ix, want := range base {
		if got[ix] != want {
			t.Errorf("index %d: coordinated metrics %v != single-host %v", ix, got[ix], want)
		}
	}
	mm := func(f wire.Float) string { b, _ := json.Marshal(f); return string(b) }
	if mm(summary.MaxMetric) != mm(baseSummary.MaxMetric) || summary.ArgMax != baseSummary.ArgMax {
		t.Errorf("merged summary (%s, %q) != single-host (%s, %q)",
			mm(summary.MaxMetric), summary.ArgMax, mm(baseSummary.MaxMetric), baseSummary.ArgMax)
	}

	// Warm repeat: every design point lands on the worker that cached it.
	_, warm := stream(t, coord.URL, post(t, coord.URL, wire.SweepRequest{Spec: spec}), nil)
	if warm.CacheHits != 64 {
		t.Errorf("warm coordinated repeat hit caches %d/64 times", warm.CacheHits)
	}
}

// bistableGrid is a 12-job bistable ensemble sweep (2 well depths via
// the microgen.k1 registry knob x 6 seeds) in wire form — small enough
// for CI, stochastic enough that the basin accounting is non-trivial
// on both stiffness levels.
func bistableGrid(duration float64) wire.Spec {
	return wire.Spec{
		Name: "bistable-grid",
		V:    wire.Version,
		Scenario: wire.Scenario{
			Kind: "bistable", DurationS: duration,
			WellM: 5e-4, BarrierJ: 2e-6, Xi1: 120, Xi2: -3.4e4,
			NoiseFLoHz: 8, NoiseFHiHz: 40, NoiseSeed: 13,
		},
		Axes: []wire.Axis{
			{Kind: wire.AxisFloat, Param: "microgen.k1", Values: []float64{-850, -900}},
			{Kind: wire.AxisSeed, BaseSeed: 13, Count: 6},
		},
	}
}

// basinFields projects each result's basin accounting per global index.
func basinFields(results []wire.Result) map[int][3]int {
	out := make(map[int][3]int, len(results))
	for _, r := range results {
		out[r.Index] = [3]int{r.Transits, r.SettledTransits, r.FinalBasin}
	}
	return out
}

// TestCoordinatorBistableBasinsMatchSingleHost is the acceptance
// criterion's distributed leg: a 3-worker coordinated bistable
// ensemble sweep reproduces the single-host run bit for bit — the
// standard identity fields AND the per-job basin accounting AND the
// merged summary's basin reductions. Sharding must not perturb the
// settle boundary or the transit counters, or the fleet's high-orbit
// fraction would depend on worker count.
func TestCoordinatorBistableBasinsMatchSingleHost(t *testing.T) {
	spec := bistableGrid(0.5)
	baseline, baseSummary := singleHostBaseline(t, spec)
	if baseSummary.Transits == 0 {
		t.Fatal("test premise broken: single-host bistable sweep counted no transits")
	}

	_, urls := startFleet(t, 3)
	coord := httptest.NewServer(New(Options{Workers: urls}).Handler())
	defer coord.Close()

	results, summary := stream(t, coord.URL, post(t, coord.URL, wire.SweepRequest{Spec: spec}), nil)
	if len(results) != 12 || summary.Jobs != 12 || summary.Failed != 0 {
		t.Fatalf("coordinated bistable sweep: %d results, summary %+v", len(results), summary)
	}
	base, got := identityFields(baseline), identityFields(results)
	for ix, want := range base {
		if got[ix] != want {
			t.Errorf("index %d: coordinated metrics %v != single-host %v", ix, got[ix], want)
		}
	}
	baseBasins, gotBasins := basinFields(baseline), basinFields(results)
	for ix, want := range baseBasins {
		if gotBasins[ix] != want {
			t.Errorf("index %d: coordinated basins %v != single-host %v", ix, gotBasins[ix], want)
		}
	}
	if summary.Transits != baseSummary.Transits || summary.HighOrbit != baseSummary.HighOrbit {
		t.Errorf("merged basin reductions (transits %d, high-orbit %d) != single-host (%d, %d)",
			summary.Transits, summary.HighOrbit, baseSummary.Transits, baseSummary.HighOrbit)
	}

	// Warm repeat through the coordinator: basin accounting comes out of
	// the snapshot cache unchanged.
	warmResults, warm := stream(t, coord.URL, post(t, coord.URL, wire.SweepRequest{Spec: spec}), nil)
	if warm.CacheHits != 12 {
		t.Errorf("warm coordinated repeat hit caches %d/12 times", warm.CacheHits)
	}
	warmBasins := basinFields(warmResults)
	for ix, want := range baseBasins {
		if warmBasins[ix] != want {
			t.Errorf("index %d: cached basins %v != fresh %v", ix, warmBasins[ix], want)
		}
	}
	if warm.Transits != baseSummary.Transits || warm.HighOrbit != baseSummary.HighOrbit {
		t.Errorf("cached basin reductions (transits %d, high-orbit %d) != fresh (%d, %d)",
			warm.Transits, warm.HighOrbit, baseSummary.Transits, baseSummary.HighOrbit)
	}
}

// TestCoordinatorNoLockstepFieldIgnored: the coordinator accepts the
// retired v1 field "no_lockstep" like the single-host server does,
// streams the same result lines as without it, and no longer forwards
// it to its workers.
func TestCoordinatorNoLockstepFieldIgnored(t *testing.T) {
	spec := bistableGrid(0.2)
	plain, err := json.Marshal(wire.SweepRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(plain, []byte("{"), []byte(`{"no_lockstep":true,`), 1)
	var forwarded atomic.Bool
	run := func(body []byte) map[int]wire.Result {
		var urls []string
		for i := 0; i < 2; i++ {
			h := server.New(server.Options{Workers: 1}).Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/sweep" {
					b, _ := io.ReadAll(r.Body)
					if bytes.Contains(b, []byte("no_lockstep")) {
						forwarded.Store(true)
					}
					r.Body = io.NopCloser(bytes.NewReader(b))
				}
				h.ServeHTTP(w, r)
			}))
			defer ts.Close()
			urls = append(urls, ts.URL)
		}
		coord := httptest.NewServer(New(Options{Workers: urls}).Handler())
		defer coord.Close()
		results, summary := stream(t, coord.URL, postBody(t, coord.URL, body), nil)
		if len(results) != 12 || summary.Failed != 0 {
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
	if forwarded.Load() {
		t.Error("coordinator forwarded no_lockstep to a worker")
	}
}

// TestCoordinatorSurvivesWorkerLoss is the tentpole acceptance path in
// miniature: kill one of three workers mid-stream and the sweep still
// completes — every index exactly once, bit-identical to a single-host
// run, with the loss visible in the summary counters.
func TestCoordinatorSurvivesWorkerLoss(t *testing.T) {
	// Long enough per job that the kill below lands while the victim's
	// shard is mostly undone (the whole 0.25s grid finishes in ~150ms).
	spec := grid64(2)
	baseline, _ := singleHostBaseline(t, spec)

	servers, urls := startFleet(t, 3)
	coord := httptest.NewServer(New(Options{Workers: urls, HealthTimeout: 500 * time.Millisecond}).Handler())
	defer coord.Close()

	acc := post(t, coord.URL, wire.SweepRequest{Spec: spec})
	killed := false
	results, summary := stream(t, coord.URL, acc, func(n int) {
		if n == 3 && !killed {
			killed = true
			// kill -9 equivalent: sever live connections, stop accepting.
			servers[0].CloseClientConnections()
			servers[0].Close()
		}
	})
	if !killed {
		t.Fatal("kill hook never fired")
	}
	if len(results) != 64 || summary.Jobs != 64 {
		t.Fatalf("after worker loss: %d results, summary %+v", len(results), summary)
	}
	seen := map[int]int{}
	for _, r := range results {
		seen[r.Index]++
		if r.Error != "" {
			t.Errorf("index %d failed after re-shard: %s", r.Index, r.Error)
		}
	}
	for ix := 0; ix < 64; ix++ {
		if seen[ix] != 1 {
			t.Fatalf("index %d delivered %d times, want exactly once", ix, seen[ix])
		}
	}
	if summary.LostWorkers == 0 || summary.Resharded == 0 {
		t.Errorf("loss not reported: %+v", summary)
	}
	base, got := identityFields(baseline), identityFields(results)
	for ix, want := range base {
		if got[ix] != want {
			t.Errorf("index %d: post-loss metrics %v != single-host %v", ix, got[ix], want)
		}
	}
}

// TestCoordinatorTotalFleetLoss: when every worker dies mid-sweep the
// merged stream still resolves, with the undeliverable jobs accounted
// as failed results.
func TestCoordinatorTotalFleetLoss(t *testing.T) {
	servers, urls := startFleet(t, 1)
	coord := httptest.NewServer(New(Options{Workers: urls, HealthTimeout: 300 * time.Millisecond}).Handler())
	defer coord.Close()

	// Long-horizon jobs so the worker dies with most work undone.
	spec := wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 5},
		Axes:     []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6}}},
	}
	acc := post(t, coord.URL, wire.SweepRequest{Spec: spec})
	servers[0].CloseClientConnections()
	servers[0].Close()
	results, summary := stream(t, coord.URL, acc, nil)
	if len(results) != 4 || summary.Jobs != 4 {
		t.Fatalf("fleet-loss stream: %d results, summary %+v", len(results), summary)
	}
	if summary.Failed == 0 || summary.LostWorkers != 1 {
		t.Errorf("fleet loss not reflected: %+v", summary)
	}
}

// TestCoordinatorErrorEnvelopes: the coordinator's non-2xx surface
// speaks the same canonical envelope with the same stable codes as a
// worker, including its mux-generated responses and the fleet-specific
// no_workers case.
func TestCoordinatorErrorEnvelopes(t *testing.T) {
	_, urls := startFleet(t, 1)
	coord := httptest.NewServer(New(Options{Workers: urls}).Handler())
	defer coord.Close()

	dead := New(Options{Workers: []string{"http://127.0.0.1:1"}, HealthTimeout: 300 * time.Millisecond})
	deadTS := httptest.NewServer(dead.Handler())
	defer deadTS.Close()

	futureSpec := grid64(0.25)
	futureSpec.V = wire.Version + 1
	future, _ := json.Marshal(wire.SweepRequest{Spec: futureSpec})
	okSpec, _ := json.Marshal(wire.SweepRequest{Spec: grid64(0.25)})
	withIndices, _ := json.Marshal(wire.SweepRequest{Spec: grid64(0.25), Indices: []int{1, 2}})

	cases := []struct {
		name       string
		base       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"malformed body", coord.URL, "POST", "/v1/sweep", "{", http.StatusBadRequest, wire.CodeBadRequest},
		{"future version", coord.URL, "POST", "/v1/sweep", string(future), http.StatusBadRequest, wire.CodeUnsupportedVersion},
		{"indices rejected", coord.URL, "POST", "/v1/sweep", string(withIndices), http.StatusBadRequest, wire.CodeBadRequest},
		{"no healthy workers", deadTS.URL, "POST", "/v1/sweep", string(okSpec), http.StatusServiceUnavailable, wire.CodeNoWorkers},
		{"unknown job", coord.URL, "GET", "/v1/jobs/nope", "", http.StatusNotFound, wire.CodeNotFound},
		{"unknown route", coord.URL, "GET", "/v1/frobnicate", "", http.StatusNotFound, wire.CodeNotFound},
		{"mux wrong method", coord.URL, "PUT", "/v1/sweep", "", http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed},
	}
	for _, tc := range cases {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		req, err := http.NewRequest(tc.method, tc.base+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %s, want %d (body %q)", tc.name, resp.Status, tc.wantStatus, raw)
			continue
		}
		var e wire.Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != tc.wantCode || e.Error.Message == "" {
			t.Errorf("%s: envelope %q (err %v), want code %q", tc.name, raw, err, tc.wantCode)
		}
	}

	// The retryable bit: no_workers is transient, bad requests are not.
	resp, err := http.Post(deadTS.URL+"/v1/sweep", "application/json", bytes.NewReader(okSpec))
	if err != nil {
		t.Fatal(err)
	}
	var e wire.Error
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if !e.Error.Retryable {
		t.Errorf("no_workers must be retryable: %+v", e)
	}
}

// TestCoordinatorHonoursBudgetMS: the client's budget_ms bounds the
// whole coordinated sweep, not only each worker's share of it. The one
// worker accepts its shard and then holds the stream open without
// writing a line; the merged stream must still resolve at the budget,
// every job failed by the deadline, long before the coordinator's own
// MaxRequestTime.
func TestCoordinatorHonoursBudgetMS(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			server.WriteJSON(w, http.StatusOK, wire.Health{V: wire.Version, Status: "ok"})
		case r.Method == http.MethodPost && r.URL.Path == "/v1/sweep":
			server.WriteJSON(w, http.StatusAccepted, wire.SweepAccepted{V: wire.Version, ID: "sw-1",
				StatusURL: "/v1/jobs/sw-1", StreamURL: "/v1/jobs/sw-1/stream"})
		default:
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			select {
			case <-r.Context().Done():
			case <-release:
			}
		}
	}))
	defer stalled.Close()
	defer close(release)
	coord := httptest.NewServer(New(Options{Workers: []string{stalled.URL}, MaxRequestTime: 5 * time.Second}).Handler())
	defer coord.Close()

	spec := wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 0.1},
		Axes:     []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6}}},
	}
	start := time.Now()
	results, summary := stream(t, coord.URL, post(t, coord.URL, wire.SweepRequest{Spec: spec, BudgetMS: 300}), nil)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("summary arrived after %v: budget_ms 300 did not bound the coordinated sweep", d)
	}
	if len(results) != 4 || summary.Jobs != 4 || summary.Failed != 4 {
		t.Fatalf("%d results, summary %+v; want all 4 jobs failed", len(results), summary)
	}
	for _, r := range results {
		if !strings.Contains(r.Error, context.DeadlineExceeded.Error()) {
			t.Errorf("index %d: error %q, want %q", r.Index, r.Error, context.DeadlineExceeded)
		}
	}
}

// TestCoordinatorWorkersEndpoint: the fleet probe reports per-worker
// health with the wire version stamped.
func TestCoordinatorWorkersEndpoint(t *testing.T) {
	_, urls := startFleet(t, 2)
	urls = append(urls, "http://127.0.0.1:1") // one dead member
	coord := httptest.NewServer(New(Options{Workers: urls, HealthTimeout: 300 * time.Millisecond}).Handler())
	defer coord.Close()

	resp, err := http.Get(coord.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs wire.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if fs.V != wire.Version || len(fs.Workers) != 3 {
		t.Fatalf("fleet status %+v", fs)
	}
	healthy := 0
	for _, ws := range fs.Workers {
		if ws.Healthy {
			healthy++
		} else if ws.Error == "" {
			t.Errorf("unhealthy worker %s carries no error", ws.URL)
		}
	}
	if healthy != 2 {
		t.Errorf("%d healthy workers, want 2", healthy)
	}
}
