package server

import (
	"io"
	"net/http"
	"strconv"

	"primecache/internal/keyspace"
	"primecache/internal/obs"
	"primecache/internal/persist"
)

// Warm-state migration endpoints. Both are registered only on servers
// with a persist tier: a memory-only node has no durable state worth
// moving, and keeping the routes off such servers keeps their metric
// surface unchanged.
//
//	GET  /v1/persist/export?owner=lo-hi[,lo-hi...]
//	POST /v1/persist/import
//
// The export body is a concatenation of persist record frames (the
// store's on-disk framing on the wire: length-prefixed, CRC-checked);
// the owner parameter names the ring arcs — in keyspace positions —
// whose keys the caller now owns. Import reads the same stream and
// writes each record through the persist tier, so a freshly joined
// node answers its first real request memoized.

// ExportStatsResponse is the import endpoint's summary body.
type ExportStatsResponse struct {
	// Imported counts records written through the persist tier.
	Imported int64 `json:"imported"`
	// Bytes counts imported value bytes.
	Bytes int64 `json:"bytes"`
}

// handlePersistExport streams every persisted record whose key hashes
// into the requested owner arcs. The stream is sorted by key and each
// frame re-verifies its CRC on read, so a migration either delivers
// bytes the disk proved intact or stops short — never silent garbage.
func (s *Server) handlePersistExport(w http.ResponseWriter, r *http.Request) {
	owner := r.URL.Query().Get("owner")
	ranges, err := keyspace.ParseRanges(owner)
	if err != nil {
		WriteError(w, Errf(CodeInvalidRequest, "owner parameter: %v", err))
		return
	}
	_, span := obs.Start(r.Context(), "persist.export", obs.String("owner", owner))
	defer span.End()
	w.Header().Set("Content-Type", "application/octet-stream")
	var keys, bytes int64
	werr := s.persist.Export(ranges.ContainsKey, func(key string, value []byte) error {
		keys++
		bytes += int64(len(value))
		return persist.WriteFrame(w, key, value)
	})
	// Headers are long gone once the first frame is written: a mid-stream
	// write error can only truncate the stream, which the importer's
	// frame reader detects exactly like a torn log tail.
	span.SetAttr("keys", strconv.FormatInt(keys, 10))
	if werr != nil {
		s.ctr.exportErrors.Inc()
		return
	}
	s.ctr.exportedKeys.Add(uint64(keys))
	s.ctr.exportedBytes.Add(uint64(bytes))
}

// handlePersistImport reads a frame stream and writes each record
// through the persist tier. Records are durable before the 200 is
// written; a corrupt or truncated stream fails the call after the
// records already decoded (imports are idempotent — re-running one
// re-puts the same keys).
func (s *Server) handlePersistImport(w http.ResponseWriter, r *http.Request) {
	_, span := obs.Start(r.Context(), "persist.import")
	defer span.End()
	fr := persist.NewFrameReader(r.Body)
	var resp ExportStatsResponse
	for {
		key, value, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.ctr.importErrors.Inc()
			WriteError(w, Errf(CodeInvalidRequest, "import stream after %d records: %v", resp.Imported, err))
			return
		}
		if err := s.persist.Put(r.Context(), key, value); err != nil {
			s.ctr.importErrors.Inc()
			WriteError(w, Errf(CodeInternal, "storing imported record: %v", err))
			return
		}
		resp.Imported++
		resp.Bytes += int64(len(value))
	}
	span.SetAttr("keys", strconv.FormatInt(resp.Imported, 10))
	s.ctr.importedKeys.Add(uint64(resp.Imported))
	s.ctr.importedBytes.Add(uint64(resp.Bytes))
	WriteJSON(w, http.StatusOK, resp)
}
