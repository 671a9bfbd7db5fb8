package server_test

// The route contract both fronts share: every case runs against a
// single-host server and against a shard coordinator over one
// in-process worker, because both are the same Front over different
// executors. Rows a front owns alone (indices handling, cache stats,
// the fleet endpoints) run against that front only.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harvsim/internal/server"
	"harvsim/internal/shard"
	"harvsim/internal/wire"
)

// contractFront is one service under the contract, with one finished,
// untraced 1-point sweep whose id the rows reach as {job}.
type contractFront struct {
	name     string
	url      string
	job      string
	accepted []byte // the raw 202 body of that sweep
}

// onePoint is the smallest valid sweep: one 0.1 s charge run.
const onePoint = `{"spec":{"scenario":{"kind":"charge","duration_s":0.1}}}`

// startFronts starts a server and a coordinator over one in-process
// worker, both with a 10-job budget, and runs one sweep on each to
// completion. A third front, a coordinator whose only worker is
// unreachable, serves the no_workers row.
func startFronts(t *testing.T) map[string]*contractFront {
	t.Helper()
	srv := httptest.NewServer(server.New(server.Options{MaxJobs: 10}).Handler())
	t.Cleanup(srv.Close)
	worker := httptest.NewServer(server.New(server.Options{Workers: 1}).Handler())
	t.Cleanup(worker.Close)
	coord := httptest.NewServer(shard.New(shard.Options{Workers: []string{worker.URL}, MaxJobs: 10}).Handler())
	t.Cleanup(coord.Close)
	idle := httptest.NewServer(shard.New(shard.Options{
		Workers: []string{"http://127.0.0.1:1"}, HealthTimeout: 300 * time.Millisecond}).Handler())
	t.Cleanup(idle.Close)

	fronts := map[string]*contractFront{
		"server":           {name: "server", url: srv.URL},
		"coordinator":      {name: "coordinator", url: coord.URL},
		"idle coordinator": {name: "idle coordinator", url: idle.URL},
	}
	for _, name := range []string{"server", "coordinator"} {
		f := fronts[name]
		resp, err := http.Post(f.url+"/v1/sweep", "application/json", strings.NewReader(onePoint))
		if err != nil {
			t.Fatal(err)
		}
		f.accepted, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: POST /v1/sweep: %s: %s", name, resp.Status, f.accepted)
		}
		var acc wire.SweepAccepted
		if err := json.Unmarshal(f.accepted, &acc); err != nil {
			t.Fatal(err)
		}
		f.job = acc.ID
		// Reading the stream to its end waits for the sweep to finish.
		stream, err := http.Get(f.url + acc.StreamURL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, stream.Body)
		stream.Body.Close()
	}
	return fronts
}

// both names the fronts a shared row runs against.
var both = []string{"server", "coordinator"}

// do sends one request to a front, with {job} in path replaced by the
// front's finished sweep id.
func do(t *testing.T, f *contractFront, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, f.url+strings.ReplaceAll(path, "{job}", f.job), rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, raw
}

// TestErrorEnvelopeEverywhere is the error-surface contract: every
// non-2xx response on every route of either front — including the
// 404/405s the ServeMux generates itself — is application/json carrying
// the canonical {"error":{"code","message","retryable"}} envelope with
// the expected stable code and retryable bit.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	fronts := startFronts(t)

	grid := wire.Spec{
		Scenario: wire.Scenario{Kind: "charge", DurationS: 0.25},
		Axes: []wire.Axis{
			{Kind: wire.AxisFloat, Param: "microgen.rc", Values: []float64{100, 180, 320, 560, 1000, 1800, 3200, 5600}},
			{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6, 7, 8, 9, 10}},
		},
	}
	big, _ := json.Marshal(wire.SweepRequest{Spec: grid})
	grid.V = wire.Version + 1
	future, _ := json.Marshal(wire.SweepRequest{Spec: grid})

	cases := []struct {
		name      string
		on        []string
		method    string
		path      string
		body      string
		status    int
		code      string
		retryable bool
	}{
		{"malformed body", both, "POST", "/v1/sweep", "{", http.StatusBadRequest, wire.CodeBadRequest, false},
		{"unknown field", both, "POST", "/v1/sweep", `{"spec":{"scenario":{"kind":"charge","duration_s":1}},"frobnicate":1}`, http.StatusBadRequest, wire.CodeBadRequest, false},
		{"invalid spec", both, "POST", "/v1/sweep", `{"spec":{"scenario":{"kind":"warp","duration_s":1}}}`, http.StatusBadRequest, wire.CodeBadRequest, false},
		{"future version", both, "POST", "/v1/sweep", string(future), http.StatusBadRequest, wire.CodeUnsupportedVersion, false},
		{"over budget", both, "POST", "/v1/sweep", string(big), http.StatusRequestEntityTooLarge, wire.CodeTooManyJobs, false},
		{"unknown job status", both, "GET", "/v1/jobs/nope", "", http.StatusNotFound, wire.CodeNotFound, false},
		{"unknown job stream", both, "GET", "/v1/jobs/nope/stream", "", http.StatusNotFound, wire.CodeNotFound, false},
		{"unknown job trace", both, "GET", "/v1/jobs/nope/trace", "", http.StatusNotFound, wire.CodeNotFound, false},
		{"unknown job cancel", both, "DELETE", "/v1/jobs/nope", "", http.StatusNotFound, wire.CodeNotFound, false},
		{"untraced job trace", both, "GET", "/v1/jobs/{job}/trace", "", http.StatusNotFound, wire.CodeNotFound, false},
		{"bad from cursor", both, "GET", "/v1/jobs/{job}/stream?from=x", "", http.StatusBadRequest, wire.CodeBadRequest, false},
		{"negative from cursor", both, "GET", "/v1/jobs/{job}/stream?from=-1", "", http.StatusBadRequest, wire.CodeBadRequest, false},
		{"unknown route", both, "GET", "/v1/frobnicate", "", http.StatusNotFound, wire.CodeNotFound, false},
		{"mux wrong method", both, "PUT", "/v1/sweep", "", http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, false},
		{"mux wrong method on jobs", both, "POST", "/v1/jobs/nope", "", http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, false},

		{"bad indices order", []string{"server"}, "POST", "/v1/sweep", `{"spec":{"scenario":{"kind":"charge","duration_s":1}},"indices":[1,1]}`, http.StatusBadRequest, wire.CodeBadRequest, false},
		{"indices out of range", []string{"server"}, "POST", "/v1/sweep", `{"spec":{"scenario":{"kind":"charge","duration_s":1}},"indices":[5]}`, http.StatusBadRequest, wire.CodeBadRequest, false},
		{"indices rejected", []string{"coordinator"}, "POST", "/v1/sweep", `{"spec":{"scenario":{"kind":"charge","duration_s":1}},"indices":[0]}`, http.StatusBadRequest, wire.CodeBadRequest, false},
		{"no live workers", []string{"idle coordinator"}, "POST", "/v1/sweep", onePoint, http.StatusServiceUnavailable, wire.CodeNoWorkers, true},
	}
	for _, tc := range cases {
		for _, name := range tc.on {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				resp, raw := do(t, fronts[name], tc.method, tc.path, tc.body)
				if resp.StatusCode != tc.status {
					t.Fatalf("status %s, want %d (body %q)", resp.Status, tc.status, raw)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type %q, want application/json", ct)
				}
				var e wire.Error
				if err := json.Unmarshal(raw, &e); err != nil {
					t.Fatalf("body %q is not the error envelope: %v", raw, err)
				}
				if e.Error.Code != tc.code || e.Error.Message == "" || e.Error.Retryable != tc.retryable {
					t.Errorf("envelope %+v, want code %q, retryable %v and a message", e, tc.code, tc.retryable)
				}
			})
		}
	}
}

// TestVersionStampOnAllJSONRoutes: every JSON body either front emits
// carries the wire-version stamp "v", and each front's health report
// carries its executor's own field.
func TestVersionStampOnAllJSONRoutes(t *testing.T) {
	fronts := startFronts(t)

	cases := []struct {
		name   string
		on     []string
		method string
		path   string
		// field, when set, is a number the body must carry as 1: the
		// server's one cached result, or the coordinator's one worker.
		field string
	}{
		{"status", both, "GET", "/v1/jobs/{job}", ""},
		{"cancel", both, "DELETE", "/v1/jobs/{job}", ""},
		{"health", []string{"server"}, "GET", "/healthz", "cache_entries"},
		{"health", []string{"coordinator"}, "GET", "/healthz", "workers"},
		{"cache stats", []string{"server"}, "GET", "/v1/cache/stats", ""},
		{"fleet", []string{"coordinator"}, "GET", "/v1/workers", ""},
	}
	checkStamp := func(t *testing.T, body []byte) map[string]any {
		t.Helper()
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		if v, ok := m["v"].(float64); !ok || int(v) != wire.Version {
			t.Fatalf("response carries no v=%d stamp: %s", wire.Version, body)
		}
		return m
	}
	for _, name := range both {
		t.Run(name+"/accepted", func(t *testing.T) { checkStamp(t, fronts[name].accepted) })
	}
	for _, tc := range cases {
		for _, name := range tc.on {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				resp, raw := do(t, fronts[name], tc.method, tc.path, "")
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s: %s", tc.method, tc.path, resp.Status)
				}
				m := checkStamp(t, raw)
				if tc.field != "" && m[tc.field] != float64(1) {
					t.Errorf("%s = %v, want 1: %s", tc.field, m[tc.field], bytes.TrimSpace(raw))
				}
			})
		}
	}
}
