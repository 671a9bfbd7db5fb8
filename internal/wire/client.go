package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"harvsim/internal/tracing"
)

// The client half of the protocol: submit a sweep, read its result
// stream, read its span stream. cmd/sweep -remote and the shard
// coordinator (a client of its workers) both speak through these three
// calls, so a stream line is scanned and its type probed in one place.

// ErrTruncated is returned by ReadStream when the stream ends before
// its summary line: the server died or the connection dropped
// mid-stream. A stream that resumes with ?from can recover from it.
var ErrTruncated = errors.New("stream ended before its summary line")

// Error makes a refusal's envelope an error value, so Submit's callers
// recover it with errors.As and branch on Code and Retryable.
func (d *ErrorDetail) Error() string { return d.Code + ": " + d.Message }

// Submit POSTs req to base's /v1/sweep and returns the accept document
// of its 202. A refusal that carries the canonical error envelope
// returns the envelope's *ErrorDetail as the error; any other status
// returns an error naming the status.
func Submit(ctx context.Context, c *http.Client, base string, req SweepRequest) (SweepAccepted, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return SweepAccepted{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return SweepAccepted{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(hreq)
	if err != nil {
		return SweepAccepted{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		var e Error
		if json.Unmarshal(msg, &e) == nil && e.Error.Code != "" {
			return SweepAccepted{}, &e.Error
		}
		return SweepAccepted{}, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var acc SweepAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		return SweepAccepted{}, fmt.Errorf("decoding accept response: %w", err)
	}
	return acc, nil
}

// ReadStream GETs a result stream — a stream_url joined to its base,
// with any ?from cursor already on it — and hands each result line to
// onResult in stream order. It returns the summary line, which ends the
// stream. A body that ends before the summary returns ErrTruncated; a
// malformed line or an unknown line type is an error.
func ReadStream(ctx context.Context, c *http.Client, url string, onResult func(Result)) (Summary, error) {
	var sum Summary
	done := false
	err := readLines(ctx, c, url, func(line []byte) (bool, error) {
		// One decode serves both the type probe and a result line. A
		// summary's int "shared" does not fit Result's bool, so a type
		// error is only a bad line once the line turns out to be a
		// result; a summary is decoded again, into Summary.
		var r Result
		err := json.Unmarshal(line, &r)
		var te *json.UnmarshalTypeError
		if err != nil && (!errors.As(err, &te) || te.Field == "type") {
			return false, fmt.Errorf("bad stream line %q: %v", line, err)
		}
		switch r.Type {
		case LineResult:
			if err != nil {
				return false, fmt.Errorf("bad result line %q: %v", line, err)
			}
			onResult(r)
			return false, nil
		case LineSummary:
			done = true
			return true, json.Unmarshal(line, &sum)
		}
		return false, fmt.Errorf("unknown stream line type %q", r.Type)
	})
	if err == nil && !done {
		err = ErrTruncated
	}
	return sum, err
}

// ReadTrace GETs base's /v1/jobs/{id}/trace and hands each span line to
// onSpan. The end of the body is the normal end of a trace stream (the
// server seals the sweep's recorder and closes it); a malformed line or
// a line of another type is an error.
func ReadTrace(ctx context.Context, c *http.Client, base, id string, onSpan func(tracing.Span)) error {
	return readLines(ctx, c, base+"/v1/jobs/"+id+"/trace", func(line []byte) (bool, error) {
		var ln SpanLine
		if err := json.Unmarshal(line, &ln); err != nil {
			return false, fmt.Errorf("bad trace line %q: %v", line, err)
		}
		if ln.Type != LineSpan {
			return false, fmt.Errorf("unknown trace line type %q", ln.Type)
		}
		onSpan(SpanOf(ln))
		return false, nil
	})
}

// readLines GETs an NDJSON body and hands each line to fn until fn
// stops or fails, or the body ends.
func readLines(ctx context.Context, c *http.Client, url string, fn func(line []byte) (stop bool, err error)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if stop, err := fn(sc.Bytes()); stop || err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading %s: %w", url, err)
	}
	return nil
}
