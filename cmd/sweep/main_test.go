package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// callRemote drives runRemote against srv with a minimal 1-candidate
// spec shape (the fake server ignores the spec; only the stream
// contract is under test).
func callRemote(srv *httptest.Server) (string, error) {
	var out strings.Builder
	err := runRemote(&out, srv.URL, 1, 2.5, 1, 5, nil, 0, 1, bistableOpts{}, false, 5, false)
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
	out, err := callRemote(srv)
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
	out, err := callRemote(srv)
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
	_, err := callRemote(srv)
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
	_, err := callRemote(srv)
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
	out, err := callRemote(srv)
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
	out, err := callRemote(srv)
	if err != nil {
		t.Fatalf("complete stream: %v", err)
	}
	if !strings.Contains(out, "completed in") || !strings.Contains(out, "best design") {
		t.Errorf("report missing expected sections:\n%s", out)
	}
}
