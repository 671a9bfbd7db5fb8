package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harvsim/internal/tracing"
)

// line renders one NDJSON line.
func line(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestReadStream drives the result-stream reader over every way a
// stream can end: with its summary, cleanly before it, aborted, on a
// line it cannot read, or with a status other than 200.
func TestReadStream(t *testing.T) {
	r0 := line(t, Result{Type: LineResult, Index: 0, Name: "a", Metric: 1.5})
	r1 := line(t, Result{Type: LineResult, Index: 1, Name: "b", Metric: 2.5})
	sum := line(t, Summary{Type: LineSummary, V: Version, Jobs: 2, Failed: 0, MaxMetric: 2.5, ArgMax: "b"})
	// A summary's "shared" is an int where a result's is a bool.
	shared := line(t, Summary{Type: LineSummary, V: Version, Jobs: 2, Shared: 2, MaxMetric: 2.5, ArgMax: "b"})
	cases := []struct {
		name       string
		body       func(w http.ResponseWriter)
		wantIdx    []int
		wantShared int
		fails      bool
		wantErr    string // substring of the error, when it has a fixed text
		truncated  bool
	}{
		{name: "complete", body: func(w http.ResponseWriter) {
			fmt.Fprint(w, r1+r0+sum)
		}, wantIdx: []int{1, 0}},
		{name: "summary with shared jobs", body: func(w http.ResponseWriter) {
			fmt.Fprint(w, r0+r1+shared)
		}, wantIdx: []int{0, 1}, wantShared: 2},
		{name: "mistyped result field", body: func(w http.ResponseWriter) {
			fmt.Fprint(w, r0+`{"type":"result","index":"one"}`+"\n"+sum)
		}, wantIdx: []int{0}, fails: true, wantErr: "bad result line"},
		{name: "mistyped line type", body: func(w http.ResponseWriter) {
			fmt.Fprint(w, r0+`{"type":5}`+"\n"+sum)
		}, wantIdx: []int{0}, fails: true, wantErr: "bad stream line"},
		{name: "truncated", body: func(w http.ResponseWriter) {
			fmt.Fprint(w, r0+r1)
		}, wantIdx: []int{0, 1}, fails: true, truncated: true},
		{name: "aborted", body: func(w http.ResponseWriter) {
			fmt.Fprint(w, r0)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}, wantIdx: []int{0}, fails: true},
		{name: "malformed line", body: func(w http.ResponseWriter) {
			fmt.Fprint(w, r0+"{not json\n"+sum)
		}, wantIdx: []int{0}, fails: true, wantErr: "bad stream line"},
		{name: "unknown line type", body: func(w http.ResponseWriter) {
			fmt.Fprint(w, r0+`{"type":"span"}`+"\n"+sum)
		}, wantIdx: []int{0}, fails: true, wantErr: `unknown stream line type "span"`},
		{name: "not found", body: func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusNotFound)
		}, fails: true, wantErr: "404 Not Found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tc.body(w)
			}))
			defer ts.Close()
			var got []int
			s, err := ReadStream(context.Background(), ts.Client(), ts.URL+"/v1/jobs/x/stream", func(r Result) {
				got = append(got, r.Index)
			})
			if fmt.Sprint(got) != fmt.Sprint(tc.wantIdx) {
				t.Errorf("result indices %v, want %v", got, tc.wantIdx)
			}
			if !tc.fails {
				if err != nil {
					t.Fatalf("ReadStream: %v", err)
				}
				if s.Jobs != 2 || s.ArgMax != "b" || float64(s.MaxMetric) != 2.5 || s.Shared != tc.wantShared {
					t.Errorf("summary %+v", s)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
			if errors.Is(err, ErrTruncated) != tc.truncated {
				t.Errorf("errors.Is(%v, ErrTruncated) = %v, want %v", err, !tc.truncated, tc.truncated)
			}
		})
	}
}

// TestReadStreamCursor: the ?from cursor a caller puts on the stream
// URL reaches the server unchanged.
func TestReadStreamCursor(t *testing.T) {
	sum := line(t, Summary{Type: LineSummary, Jobs: 3})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if from := r.URL.Query().Get("from"); from != "2" {
			t.Errorf("server saw from=%q, want 2", from)
		}
		fmt.Fprint(w, sum)
	}))
	defer ts.Close()
	if _, err := ReadStream(context.Background(), ts.Client(), ts.URL+"/v1/jobs/x/stream?from=2", func(Result) {}); err != nil {
		t.Fatal(err)
	}
}

// TestSubmit: a 202 returns its accept document; a refusal carrying the
// canonical envelope comes back as an *ErrorDetail with its code and
// retryable bit; any other refusal names its status.
func TestSubmit(t *testing.T) {
	envelope := func(status int, code string, retryable bool) func(w http.ResponseWriter) {
		return func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(Errorf(code, retryable, "refused"))
		}
	}
	cases := []struct {
		name      string
		reply     func(w http.ResponseWriter)
		wantCode  string // "" = no envelope
		retryable bool
		wantErr   string // substring for a non-envelope error; "" = success
	}{
		{name: "accepted", reply: func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(SweepAccepted{V: Version, ID: "sw-1", Jobs: 4, StreamURL: "/v1/jobs/sw-1/stream"})
		}},
		{name: "400 envelope", reply: envelope(http.StatusBadRequest, CodeBadRequest, false), wantCode: CodeBadRequest},
		{name: "503 envelope", reply: envelope(http.StatusServiceUnavailable, CodeNoWorkers, true), wantCode: CodeNoWorkers, retryable: true},
		{name: "plain 502", reply: func(w http.ResponseWriter) {
			http.Error(w, "upstream gone", http.StatusBadGateway)
		}, wantErr: "502 Bad Gateway"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var got SweepRequest
				if r.Method != http.MethodPost || r.URL.Path != "/v1/sweep" {
					t.Errorf("%s %s, want POST /v1/sweep", r.Method, r.URL.Path)
				}
				if err := json.NewDecoder(r.Body).Decode(&got); err != nil || got.Workers != 3 || got.Spec.Scenario.Kind != "charge" {
					t.Errorf("server received %+v (%v)", got, err)
				}
				tc.reply(w)
			}))
			defer ts.Close()
			req := SweepRequest{Spec: Spec{Scenario: Scenario{Kind: "charge", DurationS: 1}}, Workers: 3}
			acc, err := Submit(context.Background(), ts.Client(), ts.URL, req)
			var detail *ErrorDetail
			switch {
			case tc.wantCode != "":
				if !errors.As(err, &detail) || detail.Code != tc.wantCode || detail.Retryable != tc.retryable {
					t.Fatalf("error %v (detail %+v), want envelope %q retryable=%v", err, detail, tc.wantCode, tc.retryable)
				}
			case tc.wantErr != "":
				if err == nil || errors.As(err, &detail) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want a non-envelope error naming %q", err, tc.wantErr)
				}
			default:
				if err != nil || acc.ID != "sw-1" || acc.Jobs != 4 {
					t.Fatalf("accept %+v, err %v", acc, err)
				}
			}
		})
	}
}

// TestReadTrace: a span stream is read to the end of its body, which is
// its normal end; a line that is not a span is an error.
func TestReadTrace(t *testing.T) {
	start := time.UnixMicro(1_700_000_000_000_000)
	spans := []tracing.Span{
		{Trace: "t", ID: "a", Name: "sweep", Job: -1, Start: start, Dur: time.Millisecond},
		{Trace: "t", ID: "b", Parent: "a", Name: "job", Job: 3, Start: start.Add(time.Microsecond), Dur: 5 * time.Microsecond},
	}
	var body string
	for _, s := range spans {
		body += line(t, SpanLineOf(s))
	}
	cases := []struct {
		name    string
		extra   string
		wantErr string
	}{
		{name: "to EOF"},
		{name: "foreign line", extra: line(t, Summary{Type: LineSummary}), wantErr: `unknown trace line type "summary"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/jobs/sw-7/trace" {
					t.Errorf("GET %s, want /v1/jobs/sw-7/trace", r.URL.Path)
				}
				fmt.Fprint(w, body+tc.extra)
			}))
			defer ts.Close()
			var got []tracing.Span
			err := ReadTrace(context.Background(), ts.Client(), ts.URL, "sw-7", func(s tracing.Span) { got = append(got, s) })
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadTrace: %v", err)
			}
			if len(got) != len(spans) {
				t.Fatalf("%d spans, want %d", len(got), len(spans))
			}
			for i := range spans {
				if !got[i].Start.Equal(spans[i].Start) || got[i].Dur != spans[i].Dur ||
					got[i].ID != spans[i].ID || got[i].Parent != spans[i].Parent || got[i].Job != spans[i].Job {
					t.Errorf("span %d: %+v, want %+v", i, got[i], spans[i])
				}
			}
		})
	}
}
