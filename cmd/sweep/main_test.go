package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"harvsim/internal/server"
	"harvsim/internal/shard"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// fakeServer serves the two endpoints runRemote uses — POST /v1/sweep
// (202 + accept envelope for `jobs` jobs) and the stream URL, whose
// body is delegated to the test case.
func fakeServer(t *testing.T, jobs int, stream http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(wire.SweepAccepted{
			ID: "t1", Jobs: jobs,
			StatusURL: "/v1/jobs/t1", StreamURL: "/v1/jobs/t1/stream",
		})
	})
	mux.HandleFunc("/v1/jobs/t1/stream", stream)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// okResult renders one complete NDJSON result line for job i.
func okResult(i int) string {
	b, _ := json.Marshal(wire.Result{
		Type: wire.LineResult, Index: i, Name: fmt.Sprintf("job-%d", i),
		Metric: 1, FinalVc: 2.5, Steps: 10,
	})
	return string(b) + "\n"
}

func summaryLine(jobs, failed int) string {
	b, _ := json.Marshal(wire.Summary{Type: wire.LineSummary, Jobs: jobs, Failed: failed})
	return string(b) + "\n"
}

// callRemote drives runRemote against srv with the default sweep at
// -sim 1 (the fake server ignores the spec; only the stream contract is
// under test).
func callRemote(t *testing.T, srv *httptest.Server) (string, error) {
	var out strings.Builder
	err := runRemote(&out, parse(t, "-remote", srv.URL, "-sim", "1", "-workers", "1", "-top", "5"))
	return out.String(), err
}

// TestRunRemoteTruncatedStream: the server dies (or drops the
// connection) after emitting some results but before the summary —
// the exact "server killed mid-sweep" shape. runRemote must return an
// error naming the missing summary, not render a partial table.
func TestRunRemoteTruncatedStream(t *testing.T) {
	srv := fakeServer(t, 4, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okResult(0))
		fmt.Fprint(w, okResult(1))
		// Connection closes cleanly here: 2 of 4 results, no summary.
	})
	out, err := callRemote(t, srv)
	if err == nil {
		t.Fatalf("want error for truncated stream, got nil; output:\n%s", out)
	}
	if !strings.Contains(err.Error(), "summary") || !strings.Contains(err.Error(), "2 of 4") {
		t.Errorf("error %q should say the summary is missing after 2 of 4 results", err)
	}
	if strings.Contains(out, "completed in") {
		t.Errorf("partial sweep rendered as a completed report:\n%s", out)
	}
}

// TestRunRemoteMidStreamAbort: the server panics mid-stream after
// flushing partial data (http.ErrAbortHandler aborts the connection
// without a clean close), so the client sees a read error — which must
// surface, not be swallowed into a partial success.
func TestRunRemoteMidStreamAbort(t *testing.T) {
	srv := fakeServer(t, 3, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okResult(0))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	})
	out, err := callRemote(t, srv)
	if err == nil {
		t.Fatalf("want error for aborted stream, got nil; output:\n%s", out)
	}
	if strings.Contains(out, "completed in") {
		t.Errorf("aborted sweep rendered as a completed report:\n%s", out)
	}
}

// TestRunRemoteMissingResults: a summary arrives but some result lines
// were lost — runRemote must flag the count mismatch instead of
// padding the table with zero rows.
func TestRunRemoteMissingResults(t *testing.T) {
	srv := fakeServer(t, 3, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okResult(0))
		fmt.Fprint(w, okResult(2))
		fmt.Fprint(w, summaryLine(3, 0))
	})
	_, err := callRemote(t, srv)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncation error, got %v", err)
	}
}

// TestRunRemoteDuplicateIndex: two results claiming the same job slot
// would silently drop one job's outcome; runRemote must reject it.
func TestRunRemoteDuplicateIndex(t *testing.T) {
	srv := fakeServer(t, 2, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okResult(0))
		fmt.Fprint(w, okResult(0))
		fmt.Fprint(w, summaryLine(2, 0))
	})
	_, err := callRemote(t, srv)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-index error, got %v", err)
	}
}

// TestRunRemoteServerSideFailure: a complete stream whose summary
// reports failed jobs renders the report (the user should see which
// candidates failed) but still returns an error so the process exits
// non-zero.
func TestRunRemoteServerSideFailure(t *testing.T) {
	srv := fakeServer(t, 2, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okResult(0))
		bad, _ := json.Marshal(wire.Result{
			Type: wire.LineResult, Index: 1, Name: "job-1", Error: "engine diverged",
		})
		fmt.Fprintf(w, "%s\n", bad)
		fmt.Fprint(w, summaryLine(2, 1))
	})
	out, err := callRemote(t, srv)
	if err == nil || !strings.Contains(err.Error(), "1 of 2 jobs failed") {
		t.Fatalf("want failed-jobs error, got %v", err)
	}
	if !strings.Contains(out, "completed in") {
		t.Errorf("failed sweep should still render its report:\n%s", out)
	}
}

// TestRunRemoteCompleteStream: the happy path stays green — a full
// result set plus summary returns nil and renders the report.
func TestRunRemoteCompleteStream(t *testing.T) {
	srv := fakeServer(t, 2, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okResult(1))
		fmt.Fprint(w, okResult(0))
		fmt.Fprint(w, summaryLine(2, 0))
	})
	out, err := callRemote(t, srv)
	if err != nil {
		t.Fatalf("complete stream: %v", err)
	}
	if !strings.Contains(out, "completed in") || !strings.Contains(out, "best design") {
		t.Errorf("report missing expected sections:\n%s", out)
	}
}

// parse runs the command's flag parsing over args.
func parse(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseArgs(fs, args)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return o
}

// durations matches a rendered time.Duration with its padding.
var durations = regexp.MustCompile(`\s*\d+(\.\d+)?(ns|µs|ms|s|m|h)\b`)

// comparable drops the lines that name the mode (local header, server
// counters, fleet counters) and masks every duration, leaving what all
// three modes must print identically.
func comparable(out string) string {
	var keep []string
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "design sweep:") || strings.HasPrefix(ln, "server:") || strings.HasPrefix(ln, "fleet:") {
			continue
		}
		keep = append(keep, durations.ReplaceAllString(ln, " <d>"))
	}
	return strings.Join(keep, "\n")
}

// TestLocalMatchesRemote: one wire spec, three ways to run it. Each
// flag set runs locally, against an in-process sweep server and against
// a coordinator over two in-process workers, and all three reports
// agree line for line once durations and the mode's own header and
// counter lines are set aside. A spec the wire compiler rejects fails
// local mode before any job runs, with the message remote mode gets
// back from the server.
func TestLocalMatchesRemote(t *testing.T) {
	for _, args := range [][]string{
		{"-sim", "0.25"},
		{"-sim", "0.25", "-noise-seed", "7", "-seeds", "3", "-k3", "0,1e9"},
		{"-sim", "0.25", "-bistable", "-noise-seed", "7", "-seeds", "2"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			o := parse(t, args...)
			var local strings.Builder
			if failed, err := runLocal(&local, o); err != nil || failed != 0 {
				t.Fatalf("local run: %d failed, err %v", failed, err)
			}
			want := comparable(local.String())
			if !strings.Contains(want, "best design:") {
				t.Fatalf("local report has no best design:\n%s", local.String())
			}

			srv := httptest.NewServer(server.New(server.Options{}).Handler())
			defer srv.Close()
			var workers []string
			for i := 0; i < 2; i++ {
				w := httptest.NewServer(server.New(server.Options{Workers: 1}).Handler())
				defer w.Close()
				workers = append(workers, w.URL)
			}
			coord := httptest.NewServer(shard.New(shard.Options{Workers: workers}).Handler())
			defer coord.Close()

			for mode, base := range map[string]string{"server": srv.URL, "coordinator": coord.URL} {
				o.remote = base
				var out strings.Builder
				if err := runRemote(&out, o); err != nil {
					t.Fatalf("%s run: %v", mode, err)
				}
				if got := comparable(out.String()); got != want {
					t.Errorf("%s report differs from local\n--- local\n%s\n--- %s\n%s", mode, want, mode, got)
				}
			}
		})
	}

	t.Run("-sim 0", func(t *testing.T) {
		const msg = `wire: scenario kind "charge" needs duration_s > 0`
		o := parse(t, "-sim", "0")
		var out strings.Builder
		if _, err := runLocal(&out, o); err == nil || err.Error() != msg {
			t.Errorf("local error %v, want %q", err, msg)
		}
		if out.Len() != 0 {
			t.Errorf("local mode printed before failing:\n%s", out.String())
		}
		srv := httptest.NewServer(server.New(server.Options{}).Handler())
		defer srv.Close()
		o.remote = srv.URL
		if err := runRemote(&out, o); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("remote error %v, want one carrying %q", err, msg)
		}
	})
}

// TestRenderTraceParentsFirst feeds renderTrace a coordinator-shaped
// trace in the order a recorder finishes spans — every child before its
// parent, the root last — and requires the sweep-level lines depth-first
// from the root: each parent above its children, siblings by start.
func TestRenderTraceParentsFirst(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(id, parent, name, worker string, job, start, dur int) tracing.Span {
		return tracing.Span{Trace: "t", ID: id, Parent: parent, Name: name, Worker: worker,
			Job: job, Start: at(start), Dur: time.Duration(dur) * time.Millisecond}
	}
	// Finish order: worker 2 started second but finishes first.
	spans := []tracing.Span{
		span("e", "r", "expand", "", -1, 1, 1),
		span("b.e", "b", "expand", "", -1, 4, 1),
		span("b.q", "b", "queue", "", -1, 5, 1),
		span("b.j1", "b.x", "job", "", 1, 6, 3),
		span("b.m1", "b.j1", "march", "", 1, 6, 2),
		span("b.x", "b", "exec", "", -1, 6, 4),
		span("b", "s2", "sweep", "", -1, 4, 7),
		span("s2", "r", "shard", "http://w2", -1, 3, 9),
		span("a.e", "a", "expand", "", -1, 3, 1),
		span("a.q", "a", "queue", "", -1, 4, 1),
		span("a.j0", "a.x", "job", "", 0, 6, 6),
		span("a.x", "a", "exec", "", -1, 5, 8),
		span("a", "s1", "sweep", "", -1, 2, 12),
		span("s1", "r", "shard", "http://w1", -1, 2, 13),
		span("r", "", "sweep", "", -1, 0, 16),
	}
	var out strings.Builder
	renderTrace(&out, spans, 5)
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "slowest") {
			break
		}
		if strings.HasPrefix(line, "  ") && len(line) > 54 {
			got = append(got, strings.TrimRight(line[2:54], " "))
		}
	}
	want := []string{
		"sweep",
		"  expand",
		"  shard http://w1",
		"    sweep",
		"      expand",
		"      queue",
		"      exec",
		"  shard http://w2",
		"    sweep",
		"      expand",
		"      queue",
		"      exec",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("sweep-level lines:\n%s\nwant:\n%s\nfull output:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"), out.String())
	}
}
