package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// Conditional requests for the compute endpoints: every /v1/simulate
// and /v1/model response carries a strong ETag derived from the
// canonical job key and the result's canonical JSON. Results are
// deterministic functions of the job, so the same job yields the same
// ETag on every node and every restart — which makes If-None-Match
// work across failovers, not just against one process. The memoized
// flag is deliberately excluded from the hash: it describes this
// request's cache luck, not the entity.

// resultETag computes the quoted strong validator for a result's
// canonical JSON under its canonical job key.
func resultETag(key string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(body)
	sum := h.Sum(nil)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// etagMatch implements the If-None-Match strong comparison: a bare *
// matches any current entity; weak validators (W/"...") never
// strong-match.
func etagMatch(headerValue, etag string) bool {
	for _, candidate := range strings.Split(headerValue, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" || candidate == etag {
			return true
		}
	}
	return false
}

// writeConditional answers a compute endpoint from its result,
// marshalled once: those bytes give the ETag, and 304 (no body) goes to
// a client whose If-None-Match matches. Otherwise the body is the same
// bytes with the memoized flag spliced in as the last field, indented
// the way WriteJSON's encoder would. The memoized verdict rides the
// X-Vcached-Memoized header on 304s so clients keep an accurate flag
// without a body.
func (s *Server) writeConditional(w http.ResponseWriter, r *http.Request, key string, payload any, memoized bool) {
	compact, err := json.Marshal(payload)
	if err != nil {
		WriteError(w, err)
		return
	}
	etag := resultETag(key, compact)
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		s.ctr.notModified.Inc()
		w.Header().Set(MemoizedHeader, strconv.FormatBool(memoized))
		w.WriteHeader(http.StatusNotModified)
		return
	}
	// compact is a JSON object with at least one field, so the flag
	// goes in before its closing brace after a comma.
	flagged := make([]byte, 0, len(compact)+len(`,"memoized":false}`)+1)
	flagged = append(flagged, compact[:len(compact)-1]...)
	flagged = append(flagged, `,"memoized":`...)
	flagged = strconv.AppendBool(flagged, memoized)
	flagged = append(flagged, "}\n"...)
	var body bytes.Buffer
	body.Grow(2 * len(flagged))
	if err := json.Indent(&body, flagged, "", "  "); err != nil {
		WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body.Bytes()) // the connection is the only failure mode here
}

// MemoizedHeader carries the memoized verdict on bodiless 304
// responses.
const MemoizedHeader = "X-Vcached-Memoized"
