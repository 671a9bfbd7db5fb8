package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"harvsim/internal/wire"
)

// WriteJSON writes a JSON response body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes the canonical error envelope
// {"error":{"code","message","retryable"}} — the one shape every
// non-2xx response from the sweep service and the shard coordinator
// carries.
func WriteError(w http.ResponseWriter, status int, code string, retryable bool, format string, args ...any) {
	WriteJSON(w, status, wire.Errorf(code, retryable, format, args...))
}

// envelopeFor maps an HTTP status the mux (or any non-envelope-aware
// layer) produced to the canonical envelope.
func envelopeFor(status int) wire.Error {
	switch {
	case status == http.StatusNotFound:
		return wire.Errorf(wire.CodeNotFound, false, "no such route")
	case status == http.StatusMethodNotAllowed:
		return wire.Errorf(wire.CodeMethodNotAllowed, false, "method not allowed")
	case status >= 500:
		return wire.Errorf(wire.CodeInternal, true, "%s", http.StatusText(status))
	default:
		return wire.Errorf(wire.CodeBadRequest, false, "%s", http.StatusText(status))
	}
}

// envelopeWriter intercepts non-JSON error responses (the mux's
// plain-text 404/405, any stray http.Error) and rewrites them as the
// canonical envelope. Handlers that already speak JSON pass through
// untouched.
type envelopeWriter struct {
	http.ResponseWriter
	wroteHeader bool
	intercepted bool
}

func (ew *envelopeWriter) WriteHeader(status int) {
	if ew.wroteHeader {
		return
	}
	ew.wroteHeader = true
	if status >= 400 && ew.Header().Get("Content-Type") != "application/json" {
		ew.intercepted = true
		body, _ := json.Marshal(envelopeFor(status))
		body = append(body, '\n')
		h := ew.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		ew.ResponseWriter.WriteHeader(status)
		ew.ResponseWriter.Write(body)
		return
	}
	ew.ResponseWriter.WriteHeader(status)
}

func (ew *envelopeWriter) Write(p []byte) (int, error) {
	if !ew.wroteHeader {
		ew.WriteHeader(http.StatusOK)
	}
	if ew.intercepted {
		// Swallow the original plain-text body; the envelope already went out.
		return len(p), nil
	}
	return ew.ResponseWriter.Write(p)
}

// Flush must pass through for NDJSON streaming to stay progressive.
func (ew *envelopeWriter) Flush() {
	if f, ok := ew.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// canonicalErrors wraps a handler so every non-2xx response carries the
// canonical JSON error envelope, including responses the underlying
// ServeMux generates itself (unknown route 404, wrong-method 405).
func canonicalErrors(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}
