package server

import (
	"context"
	"encoding/json"
	"strconv"

	"primecache/internal/obs"
)

// The persist tier stores opaque bytes; the server owns the mapping
// between computed result values and those bytes. A one-byte type tag
// ('s' simulate, 'm' model) prefixes the result's JSON so the decode
// side can rebuild the right concrete type. Anything that fails to
// decode is treated as a miss and counted — the same fail-open contract
// the store itself applies to checksum failures.

const (
	persistTagSimulate = 's'
	persistTagModel    = 'm'
)

// persistEncode serialises a computed result for the disk tier; ok is
// false for values that don't belong there.
func persistEncode(v any) ([]byte, bool) {
	var tag byte
	switch v.(type) {
	case *SimulateResponse:
		tag = persistTagSimulate
	case *ModelResponse:
		tag = persistTagModel
	default:
		return nil, false
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, false
	}
	return append([]byte{tag}, body...), true
}

// persistDecode rebuilds the concrete result type from stored bytes.
func persistDecode(b []byte) (any, bool) {
	if len(b) < 2 {
		return nil, false
	}
	switch b[0] {
	case persistTagSimulate:
		var v SimulateResponse
		if json.Unmarshal(b[1:], &v) != nil {
			return nil, false
		}
		return &v, true
	case persistTagModel:
		var v ModelResponse
		if json.Unmarshal(b[1:], &v) != nil {
			return nil, false
		}
		return &v, true
	default:
		return nil, false
	}
}

// persistLookup is the second-level probe after a memo miss: a disk hit
// is promoted into the LRU and served as memoized. Undecodable values
// count as decode errors and fall through to compute.
func (s *Server) persistLookup(ctx context.Context, key string) (any, bool) {
	_, span := obs.Start(ctx, "persist-lookup")
	defer span.End()
	b, ok := s.persist.Get(key)
	if !ok {
		span.SetAttr("hit", "false")
		return nil, false
	}
	v, ok := persistDecode(b)
	if !ok {
		span.SetAttr("hit", "false")
		s.ctr.decodeErrors.Inc()
		return nil, false
	}
	span.SetAttr("hit", "true")
	s.memo.Put(key, v)
	return v, true
}

// persistStore writes a freshly computed result through to the disk
// tier. Store errors degrade durability, never the response, so they
// only bump a counter.
func (s *Server) persistStore(ctx context.Context, key string, v any) {
	b, ok := persistEncode(v)
	if !ok {
		return
	}
	ctx, span := obs.Start(ctx, "persist-store")
	span.SetAttr("bytes", strconv.Itoa(len(b)))
	defer span.End()
	if err := s.persist.Put(ctx, key, b); err != nil {
		s.ctr.storeErrors.Inc()
	}
}
