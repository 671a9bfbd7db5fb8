package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// fetchSpans replays a job's trace endpoint into memory.
func fetchSpans(t *testing.T, ts *httptest.Server, id, query string) []wire.SpanLine {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	var spans []wire.SpanLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ln wire.SpanLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		if ln.Type != wire.LineSpan {
			t.Fatalf("unexpected line type %q on trace stream", ln.Type)
		}
		spans = append(spans, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestTracedSweepMatchesUntracedBitExactly is the server half of the
// observer-grade contract: the same grid run with and without tracing
// (on fresh servers, so the cache cannot mask an engine-path
// difference) yields bit-identical metrics, and only the traced run
// exposes a trace.
func TestTracedSweepMatchesUntracedBitExactly(t *testing.T) {
	spec := grid64Spec(0.05)

	tsOff := httptest.NewServer(New(Options{}).Handler())
	defer tsOff.Close()
	accOff := postSweep(t, tsOff, wire.SweepRequest{Spec: spec})
	off, _ := streamSweep(t, tsOff, accOff)

	tsOn := httptest.NewServer(New(Options{}).Handler())
	defer tsOn.Close()
	trace := tracing.NewTraceID()
	accOn := postSweep(t, tsOn, wire.SweepRequest{Spec: spec, Trace: trace})
	on, _ := streamSweep(t, tsOn, accOn)

	wantM, gotM := metricsByIndex(off), metricsByIndex(on)
	if len(wantM) != len(gotM) {
		t.Fatalf("result counts differ: %d untraced vs %d traced", len(wantM), len(gotM))
	}
	for ix, want := range wantM {
		if gotM[ix] != want {
			t.Fatalf("job %d: traced metrics %v != untraced %v", ix, gotM[ix], want)
		}
	}

	// Traced results additionally carry the per-phase breakdown; the
	// untraced ones must not.
	for _, r := range on {
		if len(r.SpanMS) == 0 {
			t.Fatalf("traced result %d carries no span_ms", r.Index)
		}
	}
	for _, r := range off {
		if len(r.SpanMS) != 0 {
			t.Fatalf("untraced result %d carries span_ms %v", r.Index, r.SpanMS)
		}
	}

	// The untraced job has no recorder: 404 with the canonical envelope.
	resp, err := http.Get(tsOff.URL + "/v1/jobs/" + accOff.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var env wire.Error
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced trace fetch: %s", resp.Status)
	}
	if json.NewDecoder(resp.Body).Decode(&env) != nil || env.Error.Code != wire.CodeNotFound {
		t.Fatalf("untraced trace fetch envelope: %+v", env)
	}
	resp.Body.Close()

	spans := fetchSpans(t, tsOn, accOn.ID, "")
	if len(spans) < len(on) {
		t.Fatalf("%d spans for %d jobs", len(spans), len(on))
	}
	byID := make(map[string]wire.SpanLine, len(spans))
	var roots []wire.SpanLine
	jobSpans := 0
	for _, s := range spans {
		if s.V != wire.Version {
			t.Fatalf("span %s carries v=%d", s.ID, s.V)
		}
		if s.Trace != trace {
			t.Fatalf("span %s carries trace %q, want %q", s.ID, s.Trace, trace)
		}
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("duplicate span id %s", s.ID)
		}
		byID[s.ID] = s
		if s.Parent == "" {
			roots = append(roots, s)
		}
		if s.Name == "job" {
			jobSpans++
		}
	}
	if len(roots) != 1 || roots[0].Name != "sweep" {
		t.Fatalf("want exactly one root 'sweep' span, got %+v", roots)
	}
	if jobSpans != len(on) {
		t.Fatalf("%d job spans for %d jobs", jobSpans, len(on))
	}
	// Every span must be reachable from the root via parent links.
	for _, s := range spans {
		hops := 0
		for cur := s; cur.Parent != ""; hops++ {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %s (%s) has dangling parent %s", s.ID, s.Name, cur.Parent)
			}
			if hops > len(spans) {
				t.Fatalf("parent cycle at span %s", s.ID)
			}
			cur = p
		}
	}

	// ?from resumes past the replayed prefix.
	tail := fetchSpans(t, tsOn, accOn.ID, "?from=5")
	if len(tail) != len(spans)-5 {
		t.Fatalf("?from=5 returned %d of %d spans", len(tail), len(spans))
	}
	if tail[0] != spans[5] {
		t.Fatalf("?from=5 starts at %+v, want %+v", tail[0], spans[5])
	}
}
