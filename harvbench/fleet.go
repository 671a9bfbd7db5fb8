package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"harvsim/internal/server"
	"harvsim/internal/shard"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

// fleet is an in-process sweep service on loopback listeners: either one
// server, or a shard coordinator in front of worker servers. URL is the
// front the clients talk to.
type fleet struct {
	URL     string
	front   *httptest.Server
	workers []*httptest.Server
}

// newServer starts one sweep server with the given per-sweep pool size.
func newServer(workers int) *fleet {
	ts := httptest.NewServer(server.New(server.Options{Workers: workers}).Handler())
	return &fleet{URL: ts.URL, front: ts}
}

// newCoordinator starts n single-goroutine worker servers behind one
// shard coordinator.
func newCoordinator(n int) *fleet {
	f := &fleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(server.New(server.Options{Workers: 1}).Handler())
		f.workers = append(f.workers, ts)
		urls[i] = ts.URL
	}
	f.front = httptest.NewServer(shard.New(shard.Options{Workers: urls}).Handler())
	f.URL = f.front.URL
	return f
}

// Close stops the front and the workers, waiting for in-flight requests.
func (f *fleet) Close() {
	if f == nil {
		return
	}
	f.front.Close()
	for _, w := range f.workers {
		w.Close()
	}
}

// newClient returns an HTTP client keeping one idle connection per
// closed-loop client, so every client reuses its own connection.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxIdleConns: conns}}
}

// sweepOut is one sweep as a client saw it.
type sweepOut struct {
	ID      string
	Lines   []wire.Result
	Summary wire.Summary
	First   time.Duration // submit to the first result line
	Total   time.Duration // submit to the summary line
	Span    wire.SpanLine // the client-side request span (when traced)
}

// sweep submits req to base and drains its NDJSON stream. With a
// non-empty trace id the request is traced and its client-side span is
// the parent of the service's root span.
func sweep(c *http.Client, base string, req wire.SweepRequest, trace string) (sweepOut, error) {
	var out sweepOut
	start := time.Now()
	if trace != "" {
		out.Span = wire.SpanLine{Type: wire.LineSpan, Trace: trace, ID: clientSpanID(), Name: "request", Job: -1}
		req.Trace, req.Span = trace, out.Span.ID
	}
	body, err := json.Marshal(req)
	if err != nil {
		return out, fmt.Errorf("encode request: %w", err)
	}
	resp, err := c.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	var acc wire.SweepAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return out, fmt.Errorf("submit: %s", resp.Status)
	}
	if err != nil {
		return out, fmt.Errorf("submit: decode reply: %w", err)
	}
	out.ID = acc.ID
	stream, err := c.Get(base + acc.StreamURL)
	if err != nil {
		return out, fmt.Errorf("stream: %w", err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return out, fmt.Errorf("stream: %s", stream.Status)
	}
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	summary := false
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return out, fmt.Errorf("stream: bad line: %w", err)
		}
		switch probe.Type {
		case wire.LineResult:
			var line wire.Result
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return out, fmt.Errorf("stream: bad result line: %w", err)
			}
			if len(out.Lines) == 0 {
				out.First = time.Since(start)
			}
			out.Lines = append(out.Lines, line)
		case wire.LineSummary:
			if err := json.Unmarshal(sc.Bytes(), &out.Summary); err != nil {
				return out, fmt.Errorf("stream: bad summary: %w", err)
			}
			summary = true
		}
	}
	out.Total = time.Since(start)
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("stream: %w", err)
	}
	if !summary {
		return out, fmt.Errorf("stream ended without a summary line")
	}
	if trace != "" {
		out.Span.StartUS = start.UnixMicro()
		out.Span.DurUS = out.Total.Microseconds()
	}
	return out, nil
}

// fetchTrace reads a finished sweep's span lines from GET
// /v1/jobs/{id}/trace.
func fetchTrace(c *http.Client, base, id string) ([]wire.SpanLine, error) {
	resp, err := c.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: %s", id, resp.Status)
	}
	var spans []wire.SpanLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s wire.SpanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("trace %s: bad line: %w", id, err)
		}
		if s.Type == wire.LineSpan {
			spans = append(spans, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace %s: %w", id, err)
	}
	return spans, nil
}

// clientSpanID mints a span id for a benchmark-side span from a recorder
// of its own, so it cannot collide with the service's span ids.
func clientSpanID() string {
	return tracing.New("", 1).Start("client", "").ID()
}
