package shard

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvsim/internal/wire"
)

// scrape fetches a /metrics exposition from any base URL (coordinator
// or worker).
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sample extracts one un-labelled metric value from an exposition body.
func sample(t *testing.T, body, name string) float64 {
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

// drainWorker POSTs the drain request and checks the acknowledgement.
func drainWorker(t *testing.T, coordURL, workerURL string) {
	t.Helper()
	resp, err := http.Post(coordURL+"/v1/workers/drain?worker="+workerURL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("drain %s: %s: %s", workerURL, resp.Status, msg)
	}
	var ds wire.DrainStatus
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	if ds.State != wire.WorkerDraining || ds.Worker != strings.TrimRight(workerURL, "/") {
		t.Fatalf("drain acknowledgement %+v", ds)
	}
}

// fleetStates fetches GET /v1/workers and maps worker URL -> state.
func fleetStates(t *testing.T, coordURL string) map[string]string {
	t.Helper()
	resp, err := http.Get(coordURL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs wire.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(fs.Workers))
	for _, ws := range fs.Workers {
		out[ws.URL] = ws.State
	}
	return out
}

// TestClientReusesConnections pins the tuned-transport fix: the
// coordinator's default client must keep enough idle connections per
// worker that a second wave of concurrent calls re-uses the first
// wave's sockets. The bare &http.Client{} it used to fall back to keeps
// only 2 idle conns per host, so the second wave would re-dial.
func TestClientReusesConnections(t *testing.T) {
	const wave = 8
	var newConns atomic.Int64
	// The handler holds each call until its whole wave has arrived, so
	// the calls of a wave are truly concurrent: the first wave opens
	// exactly one connection per call, however the scheduler runs them.
	var mu sync.Mutex
	arrived := 0
	release := make(chan struct{})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ch := release
		if arrived++; arrived == wave {
			close(release)
			arrived, release = 0, make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-ch:
		case <-r.Context().Done():
		}
		w.Write([]byte("ok"))
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			newConns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	c := New(Options{Workers: []string{ts.URL}})

	fire := func() {
		var wg sync.WaitGroup
		for i := 0; i < wave; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := c.client.Get(ts.URL + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
		}
		wg.Wait()
	}
	fire()
	afterFirst := newConns.Load()
	if afterFirst != wave {
		t.Fatalf("first wave of %d concurrent calls opened %d connections", wave, afterFirst)
	}
	// Give the transport a beat to park the connections idle.
	time.Sleep(50 * time.Millisecond)
	fire()
	if total := newConns.Load(); total > afterFirst {
		t.Errorf("second wave dialled %d new connections (total %d after %d) — idle pool too small",
			total-afterFirst, total, afterFirst)
	}
}

// TestDrainExcludesWorkerFromNewSweeps: a drained worker takes no new
// sweeps (proved by its own /metrics staying at zero), the fleet view
// reports it draining, and draining the whole fleet yields the same
// no_workers rejection as a dead fleet.
func TestDrainExcludesWorkerFromNewSweeps(t *testing.T) {
	_, urls := startFleet(t, 2)
	coord := httptest.NewServer(New(Options{Workers: urls}).Handler())
	defer coord.Close()

	drainWorker(t, coord.URL, urls[0])

	states := fleetStates(t, coord.URL)
	if states[urls[0]] != wire.WorkerDraining || states[urls[1]] != wire.WorkerLive {
		t.Fatalf("fleet states after drain: %v", states)
	}

	results, summary := stream(t, coord.URL, post(t, coord.URL, wire.SweepRequest{Spec: grid64(0.25)}), nil)
	if len(results) != 64 || summary.Failed != 0 {
		t.Fatalf("sweep on drained fleet: %d results, summary %+v", len(results), summary)
	}
	if summary.Workers != 1 {
		t.Errorf("summary says %d workers served the sweep, want 1 (one of two drained)", summary.Workers)
	}
	if got := sample(t, scrape(t, urls[0]), "harvsim_server_sweeps_finished_total"); got != 0 {
		t.Errorf("drained worker ran %g sweeps, want 0", got)
	}
	if got := sample(t, scrape(t, urls[1]), "harvsim_server_sweeps_finished_total"); got == 0 {
		t.Error("surviving worker ran no sweeps")
	}

	// Unknown worker: 404 with the canonical envelope.
	resp, err := http.Post(coord.URL+"/v1/workers/drain?worker=http://nope.invalid:1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var e wire.Error
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || e.Error.Code != wire.CodeNotFound {
		t.Errorf("drain of unknown worker: %d %+v", resp.StatusCode, e)
	}

	// Drain the survivor too: the fleet has nowhere to run.
	drainWorker(t, coord.URL, urls[1])
	body := `{"spec":{"scenario":{"kind":"charge","duration_s":0.1}}}`
	resp, err = http.Post(coord.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || e.Error.Code != wire.CodeNoWorkers {
		t.Errorf("all-drained fleet accepted a sweep: %d %+v", resp.StatusCode, e)
	}
}

// TestDrainMidSweepCompletesInFlight is the acceptance criterion:
// draining a worker while its shard streams leaves the in-flight sweep
// untouched — it completes bit-identically with lost_workers == 0 — and
// only the next sweep routes around the drained worker.
func TestDrainMidSweepCompletesInFlight(t *testing.T) {
	spec := grid64(2)
	baseline, _ := singleHostBaseline(t, spec)

	_, urls := startFleet(t, 3)
	coord := httptest.NewServer(New(Options{Workers: urls}).Handler())
	defer coord.Close()

	acc := post(t, coord.URL, wire.SweepRequest{Spec: spec})
	drained := false
	results, summary := stream(t, coord.URL, acc, func(n int) {
		if n == 3 && !drained {
			drained = true
			drainWorker(t, coord.URL, urls[0])
		}
	})
	if !drained {
		t.Fatal("drain hook never fired")
	}
	if len(results) != 64 || summary.Jobs != 64 || summary.Failed != 0 {
		t.Fatalf("drained mid-sweep: %d results, summary %+v", len(results), summary)
	}
	if summary.LostWorkers != 0 || summary.Resharded != 0 || summary.Retries != 0 {
		t.Errorf("drain mid-sweep triggered loss handling: %+v", summary)
	}
	seen := map[int]int{}
	for _, r := range results {
		seen[r.Index]++
		if r.Error != "" {
			t.Errorf("index %d failed during drain: %s", r.Index, r.Error)
		}
	}
	for ix := 0; ix < 64; ix++ {
		if seen[ix] != 1 {
			t.Fatalf("index %d delivered %d times, want exactly once", ix, seen[ix])
		}
	}
	base, got := identityFields(baseline), identityFields(results)
	for ix, want := range base {
		if got[ix] != want {
			t.Errorf("index %d: drained-sweep metrics %v != single-host %v", ix, got[ix], want)
		}
	}

	// The drained worker served exactly its one in-flight shard; a fresh
	// sweep afterwards must not touch it.
	served := sample(t, scrape(t, urls[0]), "harvsim_server_sweeps_finished_total")
	if served != 1 {
		t.Fatalf("drained worker finished %g sweeps, want its 1 in-flight shard", served)
	}
	next := grid64(0.25) // different horizon -> different content keys, cold everywhere
	_, nextSummary := stream(t, coord.URL, post(t, coord.URL, wire.SweepRequest{Spec: next}), nil)
	if nextSummary.Failed != 0 || nextSummary.Workers != 2 {
		t.Fatalf("post-drain sweep: %+v", nextSummary)
	}
	if got := sample(t, scrape(t, urls[0]), "harvsim_server_sweeps_finished_total"); got != served {
		t.Errorf("drained worker took new work after drain: %g -> %g sweeps", served, got)
	}

	// Coordinator /metrics agrees with the two summaries.
	body := scrape(t, coord.URL)
	if got := sample(t, body, "harvsim_coord_sweeps_finished_total"); got != 2 {
		t.Errorf("coord sweeps_finished_total = %g, want 2", got)
	}
	if got := sample(t, body, "harvsim_coord_results_total"); got != 128 {
		t.Errorf("coord results_total = %g, want 128", got)
	}
	if got := sample(t, body, "harvsim_coord_lost_workers_total"); got != 0 {
		t.Errorf("coord lost_workers_total = %g, want 0", got)
	}
	if got := sample(t, body, "harvsim_coord_workers_draining"); got != 1 {
		t.Errorf("coord workers_draining = %g, want 1", got)
	}
}

// TestCoordinatorCancelReportsDone mirrors the server-side fix: DELETE
// on a finished coordinated sweep replies "done", not "cancelling".
func TestCoordinatorCancelReportsDone(t *testing.T) {
	_, urls := startFleet(t, 1)
	coord := httptest.NewServer(New(Options{Workers: urls}).Handler())
	defer coord.Close()

	spec := wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 0.1},
		Axes:     []wire.Axis{{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4}}},
	}
	acc := post(t, coord.URL, wire.SweepRequest{Spec: spec})
	stream(t, coord.URL, acc, nil) // wait for completion

	req, _ := http.NewRequest(http.MethodDelete, coord.URL+"/v1/jobs/"+acc.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "done" {
		t.Errorf("DELETE on finished coordinated sweep -> %v, want status done", out)
	}
}
