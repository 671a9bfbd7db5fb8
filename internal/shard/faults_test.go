package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"harvsim/internal/batch"
	"harvsim/internal/wire"
)

// faultTransport is the coordinator's worker transport with one
// scripted fault against a single target worker: its first submit can
// be answered by a canned response instead of the worker, and its first
// result stream can be cut cleanly after a number of lines. Every other
// request (health probes, the other worker, retries) goes through.
type faultTransport struct {
	next   http.RoundTripper
	target string // host:port of the faulted worker

	// post, when non-nil, answers the target's first POST /v1/sweep.
	post func(r *http.Request) *http.Response
	// cutAfter > 0 ends the target's first stream body after that many
	// lines, as if the connection closed cleanly mid-stream.
	cutAfter int

	mu      sync.Mutex
	posted  bool
	cut     bool
	streams []string // query of every stream GET to the target, in order
}

func (f *faultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Host != f.target {
		return f.next.RoundTrip(r)
	}
	f.mu.Lock()
	if r.Method == http.MethodPost && r.URL.Path == "/v1/sweep" && f.post != nil && !f.posted {
		f.posted = true
		f.mu.Unlock()
		if r.Body != nil {
			r.Body.Close()
		}
		return f.post(r), nil
	}
	cut := false
	if strings.HasSuffix(r.URL.Path, "/stream") {
		f.streams = append(f.streams, r.URL.RawQuery)
		cut = f.cutAfter > 0 && !f.cut
		f.cut = f.cut || cut
	}
	f.mu.Unlock()
	resp, err := f.next.RoundTrip(r)
	if err != nil || !cut {
		return resp, err
	}
	resp.Body = &cutBody{body: resp.Body, r: bufio.NewReader(resp.Body), lines: f.cutAfter}
	return resp, nil
}

// cutBody passes the first lines of a body through and then reports a
// clean EOF.
type cutBody struct {
	body  io.ReadCloser
	r     *bufio.Reader
	lines int
	buf   []byte
}

func (c *cutBody) Read(p []byte) (int, error) {
	for len(c.buf) == 0 {
		if c.lines == 0 {
			return 0, io.EOF
		}
		line, err := c.r.ReadBytes('\n')
		if err != nil {
			return 0, err
		}
		c.lines--
		c.buf = line
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

func (c *cutBody) Close() error { return c.body.Close() }

// canned builds a worker reply that never reached a worker.
func canned(r *http.Request, status int, contentType, body string) *http.Response {
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {contentType}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       r,
	}
}

// envelopeReply answers with the canonical error envelope.
func envelopeReply(status int, code string, retryable bool) func(*http.Request) *http.Response {
	return func(r *http.Request) *http.Response {
		b, _ := json.Marshal(wire.Errorf(code, retryable, "injected %s", code))
		return canned(r, status, "application/json", string(b))
	}
}

// TestCoordinatorWorkerClientFaults pins the coordinator's policy for
// each way a worker call can fail. Two real workers serve a 12-job grid;
// worker A is the one the rendezvous ring gives the larger shard
// (computed here from the same keys the coordinator places by), and a
// faultTransport in Options.Client injects one fault against it:
//
//   - a stream cut cleanly after 2 result lines from a worker that is
//     still healthy resumes on that worker with ?from=2: one retry, no
//     loss, no re-shard;
//   - a non-retryable envelope on the submit fails A's jobs as a
//     refused shard without re-sharding them (every worker would refuse
//     the same request);
//   - a retryable envelope, or a status with no envelope at all, loses
//     A and re-shards its jobs onto B, bit-identical to one host.
func TestCoordinatorWorkerClientFaults(t *testing.T) {
	spec := wire.Spec{
		Name:     "faults",
		V:        wire.Version,
		Scenario: wire.Scenario{Kind: "charge", DurationS: 0.1, Set: map[string]float64{"initial_vc": 2.5}},
		Axes: []wire.Axis{
			{Kind: wire.AxisInt, Param: "dickson.stages", Ints: []int{3, 4, 5, 6}},
			{Kind: wire.AxisFloat, Param: "dickson.cstage", Values: []float64{10e-6, 22e-6, 47e-6}},
		},
	}
	sw, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sw.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	keys := batch.Keys(jobs, batch.Options{})
	baseline, _ := singleHostBaseline(t, spec)
	want := identityFields(baseline)

	cases := []struct {
		name     string
		post     func(*http.Request) *http.Response
		cutAfter int
		check    func(t *testing.T, o faultOutcome)
	}{
		{
			name:     "stream cut, worker healthy",
			cutAfter: 2,
			check: func(t *testing.T, o faultOutcome) {
				s := o.summary
				if s.Retries != 1 || s.LostWorkers != 0 || s.Resharded != 0 || s.Failed != 0 {
					t.Errorf("summary %+v, want retries 1 and no loss, re-shard or failure", s)
				}
				if got := o.ft.streams; len(got) != 2 || got[1] != "from=2" {
					t.Errorf("A's stream requests %q, want a resume carrying from=2", got)
				}
				sameAsOneHost(t, o.results, want)
			},
		},
		{
			name: "non-retryable envelope",
			post: envelopeReply(http.StatusBadRequest, wire.CodeBadRequest, false),
			check: func(t *testing.T, o faultOutcome) {
				s := o.summary
				if s.Resharded != 0 || s.LostWorkers != 0 || s.Failed != len(o.aJobs) {
					t.Errorf("summary %+v, want %d failed and no re-shard", s, len(o.aJobs))
				}
				onA := map[int]bool{}
				for _, ix := range o.aJobs {
					onA[ix] = true
				}
				for _, r := range o.results {
					switch {
					case onA[r.Index] && !strings.Contains(r.Error, "refused shard"):
						t.Errorf("A's index %d: error %q, want a refused shard", r.Index, r.Error)
					case !onA[r.Index] && r.Error != "":
						t.Errorf("B's index %d failed: %s", r.Index, r.Error)
					}
				}
			},
		},
		{
			name:  "retryable envelope",
			post:  envelopeReply(http.StatusServiceUnavailable, wire.CodeInternal, true),
			check: lostAndResharded(want),
		},
		{
			name: "plain-text 502",
			post: func(r *http.Request) *http.Response {
				return canned(r, http.StatusBadGateway, "text/plain; charset=utf-8", "bad gateway\n")
			},
			check: lostAndResharded(want),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, urls := startFleet(t, 2)
			assign := NewRing(urls).Assign(keys)
			a := urls[0]
			if len(assign[urls[1]]) > len(assign[a]) {
				a = urls[1]
			}
			if len(assign[a]) <= tc.cutAfter {
				t.Fatalf("test premise: worker A holds %d jobs, need more than %d", len(assign[a]), tc.cutAfter)
			}
			ft := &faultTransport{
				next:     http.DefaultTransport,
				target:   strings.TrimPrefix(a, "http://"),
				post:     tc.post,
				cutAfter: tc.cutAfter,
			}
			coord := httptest.NewServer(New(Options{Workers: urls, Client: &http.Client{Transport: ft}}).Handler())
			defer coord.Close()
			results, summary := stream(t, coord.URL, post(t, coord.URL, wire.SweepRequest{Spec: spec}), nil)
			seen := map[int]int{}
			for _, r := range results {
				seen[r.Index]++
			}
			for ix := range keys {
				if seen[ix] != 1 {
					t.Fatalf("index %d delivered %d times, want exactly once", ix, seen[ix])
				}
			}
			if len(results) != len(keys) || summary.Jobs != len(keys) {
				t.Fatalf("%d results, summary %+v; want %d jobs", len(results), summary, len(keys))
			}
			ft.mu.Lock()
			defer ft.mu.Unlock()
			tc.check(t, faultOutcome{results: results, summary: summary, aJobs: assign[a], ft: ft})
		})
	}
}

// faultOutcome is what one faulted coordinated sweep delivered.
type faultOutcome struct {
	results []wire.Result
	summary wire.Summary
	aJobs   []int // worker A's shard
	ft      *faultTransport
}

// lostAndResharded checks the worker-loss outcome: A is lost, every one
// of its jobs is re-sharded onto B, and nothing differs from one host.
func lostAndResharded(want map[int][5]string) func(t *testing.T, o faultOutcome) {
	return func(t *testing.T, o faultOutcome) {
		s := o.summary
		if s.LostWorkers != 1 || s.Resharded != len(o.aJobs) || s.Retries != 0 || s.Failed != 0 {
			t.Errorf("summary %+v, want 1 lost worker and A's %d jobs re-sharded", s, len(o.aJobs))
		}
		sameAsOneHost(t, o.results, want)
	}
}

// sameAsOneHost requires every result to succeed with the single-host
// run's metric bits and content key.
func sameAsOneHost(t *testing.T, results []wire.Result, want map[int][5]string) {
	t.Helper()
	got := identityFields(results)
	for _, r := range results {
		if r.Error != "" {
			t.Errorf("index %d failed: %s", r.Index, r.Error)
		}
	}
	for ix, w := range want {
		if got[ix] != w {
			t.Errorf("index %d: metrics %v != single-host %v", ix, got[ix], w)
		}
	}
}
