package server

import (
	"primecache/internal/obs"
	"primecache/internal/persist"
)

// Schema 2 of /v1/stats: the memo, persist, admission, and partial
// blocks below are shaped identically on the single-node server and
// the cluster coordinator, so one dashboard (or one typed client
// decode) works against either tier. The response carries
// "schema": 2; the schema-1 top-level shapes are kept for one release
// and announced via Deprecation/Sunset headers on the endpoint.

// StatsSchemaVersion is the current /v1/stats schema.
const StatsSchemaVersion = 2

// Deprecation metadata for the schema-1 field layout, served as HTTP
// response headers on /v1/stats (RFC 8594 Sunset; draft Deprecation).
const (
	StatsSchema1Deprecation = "Sat, 08 Aug 2026 00:00:00 GMT"
	StatsSchema1Sunset      = "Sat, 07 Nov 2026 00:00:00 GMT"
)

// MemoBlock is the memo tier's stats block (wire-compatible with the
// schema-1 "memo" object).
type MemoBlock struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRatio  float64 `json:"hitRatio"`
}

// PersistBlock is the disk tier's stats block; Enabled false means the
// server runs memory-only and every counter is zero.
type PersistBlock struct {
	Enabled bool `json:"enabled"`
	persist.Stats
}

// AdmissionBlock is the overload valve's stats block (wire-compatible
// with the schema-1 "admission" object).
type AdmissionBlock struct {
	Capacity int     `json:"capacity"`
	Queued   int64   `json:"queued"`
	Shed     uint64  `json:"shed"`
	Pressure float64 `json:"pressure"`
}

// PartialBlock accounts work burned by jobs cancelled mid-simulation
// (wire-compatible with the schema-1 "partial" object).
type PartialBlock struct {
	CancelledJobs uint64 `json:"cancelledJobs"`
	RefsCompleted uint64 `json:"refsCompleted"`
}

// StatsV2 is the uniform cross-tier view of a stats response — the
// schema-2 contract without the tier-specific extras (pool, metrics,
// cluster routing). Client dashboards should consume this.
type StatsV2 struct {
	Schema    int            `json:"schema"`
	Memo      MemoBlock      `json:"memo"`
	Persist   PersistBlock   `json:"persist"`
	Admission AdmissionBlock `json:"admission"`
	Partial   PartialBlock   `json:"partial"`
}

// V2 projects the full server response onto the uniform schema-2 view.
func (r StatsResponse) V2() StatsV2 {
	return StatsV2{
		Schema:    r.Schema,
		Memo:      r.Memo,
		Persist:   r.Persist,
		Admission: r.Admission,
		Partial:   r.Partial,
	}
}

// StatsBlocks builds the schema-2 blocks from a registry snapshot: a
// node's own, or on the coordinator the sum of its backends'. The
// persist block is enabled when the snapshot has the disk tier's
// metrics. Admission pressure is occupancy at the moment of the
// request, not a registry metric, so the caller fills it in.
func StatsBlocks(snap obs.Snapshot) StatsV2 {
	c, g := snap.Counters, snap.Gauges
	hits, misses := c["memo.hits"], c["memo.misses"]
	var hitRatio float64
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	_, persistOn := g["persist.keys"]
	return StatsV2{
		Schema: StatsSchemaVersion,
		Memo: MemoBlock{
			Hits:      hits,
			Misses:    misses,
			Evictions: c["memo.evictions"],
			Entries:   int(g["memo.entries"]),
			Capacity:  int(g["memo.capacity"]),
			HitRatio:  hitRatio,
		},
		Persist: PersistBlock{Enabled: persistOn, Stats: persist.Stats{
			Keys:            int(g["persist.keys"]),
			Segments:        int(g["persist.live_segments"]),
			DiskBytes:       g["persist.disk_bytes"],
			DeadBytes:       g["persist.dead_bytes"],
			Hits:            c["persist.hits"],
			Misses:          c["persist.misses"],
			BytesAppended:   c["persist.bytes"],
			SegmentsCreated: c["persist.segments"],
			Compactions:     c["persist.compactions"],
			CorruptRecords:  c["persist.corrupt_records"],
			TornTruncations: c["persist.torn_truncations"],
			IOErrors:        c["persist.io_errors"],
			EvictedKeys:     c["persist.evicted_keys"],
			SnapshotRestore: g["persist.snapshot_restore"] > 0,
		}},
		Admission: AdmissionBlock{
			Capacity: int(g["admission.capacity"]),
			Queued:   g["admission.queued"],
			Shed:     c["admission.shed"],
		},
		Partial: PartialBlock{
			CancelledJobs: c["compute.cancelledJobs"],
			RefsCompleted: c["compute.partialRefs"],
		},
	}
}

// serverCounters are the counters request paths bump, resolved at New
// so that no request looks a metric up by name and every family exists
// from the first scrape. The persist ones are nil on a memory-only
// server, whose persist paths never run.
type serverCounters struct {
	cancelledJobs, partialRefs, notModified *obs.Counter

	decodeErrors, storeErrors                 *obs.Counter
	exportErrors, exportedKeys, exportedBytes *obs.Counter
	importErrors, importedKeys, importedBytes *obs.Counter
}

// persistMetrics are the disk tier's read-through metrics, one per
// persist.Stats field, under their vcached_persist_* family names.
var persistMetrics = []struct {
	name, help string
	kind       obs.Kind
	value      func(persist.Stats) int64
}{
	{"persist.hits", "Persist-tier lookup hits.", obs.KindCounter, func(st persist.Stats) int64 { return int64(st.Hits) }},
	{"persist.misses", "Persist-tier lookup misses.", obs.KindCounter, func(st persist.Stats) int64 { return int64(st.Misses) }},
	{"persist.bytes", "Bytes appended to the persist log.", obs.KindCounter, func(st persist.Stats) int64 { return int64(st.BytesAppended) }},
	{"persist.segments", "Persist log segments created.", obs.KindCounter, func(st persist.Stats) int64 { return int64(st.SegmentsCreated) }},
	{"persist.compactions", "Persist log compaction passes.", obs.KindCounter, func(st persist.Stats) int64 { return int64(st.Compactions) }},
	{"persist.corrupt_records", "Records dropped for failing checksum or decode verification.", obs.KindCounter, func(st persist.Stats) int64 { return int64(st.CorruptRecords) }},
	{"persist.torn_truncations", "Torn log tails truncated during recovery.", obs.KindCounter, func(st persist.Stats) int64 { return int64(st.TornTruncations) }},
	{"persist.io_errors", "Persist-tier write, sync and compaction I/O errors.", obs.KindCounter, func(st persist.Stats) int64 { return int64(st.IOErrors) }},
	{"persist.evicted_keys", "Keys dropped to keep the persist log inside its disk budget.", obs.KindCounter, func(st persist.Stats) int64 { return int64(st.EvictedKeys) }},
	{"persist.keys", "Live keys in the persist index.", obs.KindGauge, func(st persist.Stats) int64 { return int64(st.Keys) }},
	{"persist.live_segments", "Persist log segments currently on disk.", obs.KindGauge, func(st persist.Stats) int64 { return int64(st.Segments) }},
	{"persist.disk_bytes", "Bytes currently on disk across live segments.", obs.KindGauge, func(st persist.Stats) int64 { return st.DiskBytes }},
	{"persist.dead_bytes", "Bytes of overwritten records awaiting compaction.", obs.KindGauge, func(st persist.Stats) int64 { return st.DeadBytes }},
	{"persist.snapshot_restore", "1 when the persist index was restored from its snapshot at open, 0 when the log was rescanned.", obs.KindGauge, func(st persist.Stats) int64 {
		if st.SnapshotRestore {
			return 1
		}
		return 0
	}},
}

// registerMetrics puts everything /metrics and /v1/stats report into
// the registry: the counters request paths bump, the memo's stats and,
// when the disk tier is on, its stats and the server's persist-path
// counters.
func (s *Server) registerMetrics() {
	m := s.metrics
	s.ctr.cancelledJobs = m.Counter("compute.cancelledJobs")
	s.ctr.partialRefs = m.Counter("compute.partialRefs")
	s.ctr.notModified = m.Counter("etag.notModified")

	m.CounterFunc("memo.hits", "Memoizer hits.", s.memo.hits.Value)
	m.CounterFunc("memo.misses", "Memoizer misses.", s.memo.misses.Value)
	m.CounterFunc("memo.evictions", "Memoizer LRU evictions.", s.memo.evictions.Value)
	m.GaugeFunc("memo.entries", "Memoizer resident entries.", func() int64 { return int64(s.memo.Len()) })
	m.GaugeFunc("memo.capacity", "Memoizer capacity (0 when disabled).", func() int64 { return int64(s.memo.cap) })

	if s.persist == nil {
		return
	}
	s.ctr.decodeErrors = m.Counter("persist.decodeErrors")
	s.ctr.storeErrors = m.Counter("persist.storeErrors")
	s.ctr.exportErrors = m.Counter("persist.exportErrors")
	s.ctr.exportedKeys = m.Counter("persist.exportedKeys")
	s.ctr.exportedBytes = m.Counter("persist.exportedBytes")
	s.ctr.importErrors = m.Counter("persist.importErrors")
	s.ctr.importedKeys = m.Counter("persist.importedKeys")
	s.ctr.importedBytes = m.Counter("persist.importedBytes")
	for _, pm := range persistMetrics {
		read := func() int64 { return pm.value(s.persist.Stats()) }
		if pm.kind == obs.KindCounter {
			m.CounterFunc(pm.name, pm.help, func() uint64 { return uint64(read()) })
		} else {
			m.GaugeFunc(pm.name, pm.help, read)
		}
	}
}

// SetDeprecationHeaders announces the schema-1 sunset on a /v1/stats
// response. The coordinator calls it too — both tiers deprecate the
// schema-1 layout on the same clock.
func SetDeprecationHeaders(set func(key, value string)) {
	set("Deprecation", StatsSchema1Deprecation)
	set("Sunset", StatsSchema1Sunset)
}
