package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// tracesResponse is the /v1/debug/traces envelope.
type tracesResponse struct {
	Origin string      `json:"origin"`
	Traces []TraceData `json:"traces"`
}

// writeHandlerError emits the service's unified error envelope
// ({"error":{"code","message"}}). The shape is duplicated here rather
// than imported: obs sits below the server package, which already
// imports obs for spans. The codes used ("invalid_request",
// "not_found") are members of the server's ErrorCode contract.
func writeHandlerError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"error": map[string]string{"code": code, "message": message}})
}

// TracesHandler serves the finished-trace ring as JSON. Without a
// query it returns every retained trace, oldest first; ?id=<hex trace
// id> returns just that trace (404 when it has been evicted), and
// ?last=N returns the N most recent. On a nil Tracer every request
// answers 404 not_found.
func (t *Tracer) TracesHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			writeHandlerError(w, http.StatusNotFound, "not_found", "tracing is not enabled")
			return
		}
		resp := tracesResponse{Origin: t.origin}
		if idStr := r.URL.Query().Get("id"); idStr != "" {
			id, err := strconv.ParseUint(idStr, 16, 64)
			if err != nil {
				writeHandlerError(w, http.StatusBadRequest, "invalid_request", "bad trace id: want 16 hex digits")
				return
			}
			td, ok := t.TraceByID(TraceID(id))
			if !ok {
				writeHandlerError(w, http.StatusNotFound, "not_found", "trace not found (evicted or never finished)")
				return
			}
			resp.Traces = []TraceData{td}
		} else {
			resp.Traces = t.Traces()
			if lastStr := r.URL.Query().Get("last"); lastStr != "" {
				n, err := strconv.Atoi(lastStr)
				if err != nil || n < 0 {
					writeHandlerError(w, http.StatusBadRequest, "invalid_request", "bad last: want a non-negative integer")
					return
				}
				if n < len(resp.Traces) {
					resp.Traces = resp.Traces[len(resp.Traces)-n:]
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	}
}
