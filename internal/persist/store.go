// Package persist is the disk-backed second-level memo tier behind the
// in-memory LRU: an append-only, CRC-checksummed, length-prefixed
// record log with an in-memory key index, segment rotation, and
// compaction, plus an atomic index snapshot so vcached restarts warm
// without rescanning the whole log.
//
// Durability contract: a Put is recoverable once it returns (the bytes
// are in the segment, verified by checksum on every later read) and
// durable across power loss once Sync or Close has run. Corruption
// never propagates — a torn final record is truncated away, a bad
// checksum mid-log quarantines the segment and counts it, and every
// Get re-verifies the checksum before returning bytes.
package persist

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"primecache/internal/obs"
)

// Options configures Open.
type Options struct {
	// Dir holds the segment files and index snapshot; created when
	// missing.
	Dir string
	// MaxBytes caps total segment bytes on disk; when rotation pushes
	// past the cap the store compacts, then drops oldest segments (and
	// their keys) until under budget. 0 = 256 MiB, negative = unbounded.
	MaxBytes int64
	// SegmentBytes is the rotation threshold for the active segment.
	// 0 = 8 MiB.
	SegmentBytes int64
	// FS overrides the filesystem (tests inject FaultFS). Nil = OS.
	FS FS
}

const (
	defaultMaxBytes     = 256 << 20
	defaultSegmentBytes = 8 << 20
	snapshotName        = "index.snap"
	segmentPrefix       = "seg-"
	segmentSuffix       = ".log"
	corruptSuffix       = ".corrupt"

	// compactMinDeadRatio is the dead-bytes fraction at which rotation
	// triggers a compaction pass.
	compactMinDeadRatio = 0.5
)

// ErrClosed is returned by mutations on a closed store.
var ErrClosed = errors.New("persist: store closed")

// errBroken marks a store that hit an unrecoverable write error and
// went read-only for safety.
var errBroken = errors.New("persist: store broken by io error")

type segment struct {
	id   int32
	path string
	f    File
	size int64
}

// digest is what the index keeps of a record's key: the first 16 bytes
// of its SHA-256, far smaller than the keys themselves. Every read
// re-checks the key stored in the record, so two keys with one digest
// can only cost a miss, never a wrong answer.
type digest [16]byte

func digestOf(key string) digest {
	sum := sha256.Sum256([]byte(key))
	return digest(sum[:16])
}

// ref locates one live record: the id of its segment, its offset there
// and its length. It holds no pointer, so the garbage collector never
// scans the index, and it takes 16 bytes; lookupLocked finds the segment.
type ref struct {
	off    int64
	seg, n int32
}

// Store is the disk tier. All methods are safe for concurrent use.
type Store struct {
	dir      string
	fs       FS
	maxBytes int64
	segBytes int64

	mu     sync.RWMutex
	segs   []*segment // ascending id; last is active
	index  map[digest]ref
	dead   int64 // bytes owned by superseded or tombstoned records
	broken bool
	closed bool

	hits          atomic.Uint64
	misses        atomic.Uint64
	bytesAppended atomic.Uint64
	segsCreated   atomic.Uint64
	compactions   atomic.Uint64
	corrupt       atomic.Uint64
	torn          atomic.Uint64
	ioErrors      atomic.Uint64
	evictedKeys   atomic.Uint64
	restoredSnap  atomic.Bool
}

// Stats is a point-in-time snapshot of the store's counters and shape,
// surfaced through /v1/stats and the vcached_persist_* Prometheus
// families.
type Stats struct {
	Keys            int    `json:"keys"`
	Segments        int    `json:"segments"`
	DiskBytes       int64  `json:"diskBytes"`
	DeadBytes       int64  `json:"deadBytes"`
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	BytesAppended   uint64 `json:"bytesAppended"`
	SegmentsCreated uint64 `json:"segmentsCreated"`
	Compactions     uint64 `json:"compactions"`
	CorruptRecords  uint64 `json:"corruptRecords"`
	TornTruncations uint64 `json:"tornTruncations"`
	IOErrors        uint64 `json:"ioErrors"`
	EvictedKeys     uint64 `json:"evictedKeys"`
	SnapshotRestore bool   `json:"snapshotRestore"`
}

// Open recovers the store in dir: leftover temp files are discarded,
// the index snapshot is restored when it exactly matches the segments
// on disk, and otherwise every segment is scanned — truncating torn
// tails and quarantining corrupt segments along the way.
func Open(opts Options) (*Store, error) {
	s := &Store{
		dir:      opts.Dir,
		fs:       opts.FS,
		maxBytes: opts.MaxBytes,
		segBytes: opts.SegmentBytes,
		index:    make(map[digest]ref),
	}
	if s.fs == nil {
		s.fs = OS
	}
	if s.maxBytes == 0 {
		s.maxBytes = defaultMaxBytes
	}
	if s.segBytes <= 0 {
		s.segBytes = defaultSegmentBytes
	}
	if s.dir == "" {
		return nil, errors.New("persist: Options.Dir is required")
	}
	if err := s.fs.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: mkdir: %w", err)
	}
	ids, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		seg, err := s.openSegment(id)
		if err != nil {
			s.closeAll()
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	if !s.restoreSnapshot() {
		s.scanAll()
	}
	// Always append into a fresh segment after recovery: pre-crash
	// segments stay immutable, so a recovered offset can never collide
	// with new writes.
	if err := s.rotateLocked(); err != nil {
		s.closeAll()
		return nil, err
	}
	return s, nil
}

// listSegments returns segment ids in ascending order, removing any
// leftover temporary files from an interrupted compaction or snapshot.
func (s *Store) listSegments() ([]int32, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: readdir: %w", err)
	}
	var ids []int32
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			_ = s.fs.Remove(filepath.Join(s.dir, name))
			continue
		}
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		var id int64
		if _, err := fmt.Sscanf(name, segmentPrefix+"%016d"+segmentSuffix, &id); err != nil {
			continue
		}
		if id < 0 || id > math.MaxInt32 {
			return nil, fmt.Errorf("persist: segment id %d of %s out of range", id, name)
		}
		ids = append(ids, int32(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

func (s *Store) segmentPath(id int32) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016d%s", segmentPrefix, id, segmentSuffix))
}

func (s *Store) openSegment(id int32) (*segment, error) {
	path := s.segmentPath(id)
	f, err := s.fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: stat segment: %w", err)
	}
	return &segment{id: id, path: path, f: f, size: fi.Size()}, nil
}

// scanAll rebuilds the index from the segment logs in id order, so a
// later record for the same key always wins. Each segment is scanned in
// full before its records are applied: a corrupt segment is quarantined
// whole (renamed *.corrupt) rather than half-trusted.
func (s *Store) scanAll() {
	kept := s.segs[:0]
	for _, seg := range s.segs {
		entries, verdict := s.scanSegment(seg)
		if verdict == segCorrupt {
			seg.f.Close()
			_ = s.fs.Rename(seg.path, seg.path+corruptSuffix)
			continue
		}
		for _, e := range entries {
			s.applyEntry(e.kind, e.d, ref{seg: seg.id, off: e.off, n: int32(e.n)})
		}
		kept = append(kept, seg)
	}
	s.segs = kept
}

type scanEntry struct {
	kind byte
	d    digest
	off  int64
	n    int64
}

type segVerdict int

const (
	segClean segVerdict = iota
	segCorrupt
)

// scanSegment walks seg record by record. A torn tail is truncated in
// place (counted in tornTruncations); corruption anywhere else condemns
// the segment. Read errors during scan are treated as corruption — we
// cannot vouch for the bytes.
func (s *Store) scanSegment(seg *segment) ([]scanEntry, segVerdict) {
	var entries []scanEntry
	off := int64(0)
	for off < seg.size {
		kind, key, _, n, err := readRecordAt(seg.f, off, seg.size, maxRecordLen)
		switch {
		case err == nil:
			entries = append(entries, scanEntry{kind: kind, d: digestOf(key), off: off, n: n})
			off += n
		case errors.Is(err, errTorn):
			s.torn.Add(1)
			if terr := seg.f.Truncate(off); terr == nil {
				seg.size = off
			} else {
				// Can't cut the tail off: quarantine rather than leave
				// a known-bad extent appendable.
				s.ioErrors.Add(1)
				return nil, segCorrupt
			}
			return entries, segClean
		default:
			s.corrupt.Add(1)
			return nil, segCorrupt
		}
	}
	return entries, segClean
}

// applyEntry folds one log record into the index with dead-byte
// accounting.
func (s *Store) applyEntry(kind byte, d digest, r ref) {
	if old, ok := s.index[d]; ok {
		s.dead += int64(old.n)
	}
	if kind == kindTombstone {
		delete(s.index, d)
		s.dead += int64(r.n)
		return
	}
	s.index[d] = r
}

// Get returns the stored value for key. The record's checksum and key
// are re-verified on every read; a record that fails verification is
// dropped from the index and counted corrupt, and the caller sees a
// plain miss — never bad bytes. A sound record of another key with the
// same digest is a plain miss too.
func (s *Store) Get(key string) ([]byte, bool) { return s.read(key, true) }

// read is Get's body; count false skips the hit/miss counters so
// replication reads (Export) do not distort cache statistics. Corrupt
// records are counted and quarantined either way.
func (s *Store) read(key string, count bool) ([]byte, bool) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, false
	}
	d := digestOf(key)
	r, f, ok := s.lookupLocked(d)
	s.mu.RUnlock()
	if !ok {
		if count {
			s.misses.Add(1)
		}
		return nil, false
	}
	kind, gotKey, value, _, err := readRecordAt(f, r.off, r.end(), maxRecordLen)
	if err != nil || kind != kindPut {
		s.corrupt.Add(1)
		if count {
			s.misses.Add(1)
		}
		s.mu.Lock()
		if cur, ok := s.index[d]; ok && cur == r {
			delete(s.index, d)
			s.dead += int64(r.n)
		}
		s.mu.Unlock()
		return nil, false
	}
	if gotKey != key {
		if count {
			s.misses.Add(1)
		}
		return nil, false
	}
	if count {
		s.hits.Add(1)
	}
	return value, true
}

// lookupLocked returns d's ref and the file of its segment; ok is false
// when d is not indexed. Callers hold s.mu.
func (s *Store) lookupLocked(d digest) (r ref, f File, ok bool) {
	r, ok = s.index[d]
	if !ok {
		return ref{}, nil, false
	}
	// An indexed ref names an open segment, and s.segs is in ascending
	// id order.
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].id >= r.seg })
	return r, s.segs[i].f, true
}

// end returns the offset just past r's record.
func (r ref) end() int64 { return r.off + int64(r.n) }

// Has reports whether key is indexed without touching disk.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[digestOf(key)]
	return ok
}

// Keys returns the live key count.
func (s *Store) Keys() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Put appends key=value. On a write error the partial append is
// truncated away; if even that fails the store goes read-only (broken)
// rather than risk serving a half-written record.
func (s *Store) Put(ctx context.Context, key string, value []byte) error {
	rec := encodeRecord(kindPut, key, value)
	return s.append(ctx, key, rec, false)
}

// Delete appends a tombstone for key; compaction drops both the
// tombstone and the records it shadows.
func (s *Store) Delete(ctx context.Context, key string) error {
	s.mu.RLock()
	_, present := s.index[digestOf(key)]
	s.mu.RUnlock()
	if !present {
		return nil
	}
	rec := encodeRecord(kindTombstone, key, nil)
	return s.append(ctx, key, rec, true)
}

func (s *Store) append(ctx context.Context, key string, rec []byte, tombstone bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.broken {
		return errBroken
	}
	if int64(len(rec)) > maxRecordLen {
		return fmt.Errorf("persist: record for %q exceeds %d bytes", key, maxRecordLen)
	}
	active := s.activeLocked()
	if active.size > 0 && active.size+int64(len(rec)) > s.segBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		s.maybeCompactLocked(ctx)
		active = s.activeLocked()
	}
	off := active.size
	if _, err := active.f.WriteAt(rec, off); err != nil {
		s.ioErrors.Add(1)
		// Cut off whatever partially landed so the tail stays parseable.
		if terr := active.f.Truncate(off); terr != nil {
			s.broken = true
		}
		return fmt.Errorf("persist: append: %w", err)
	}
	active.size = off + int64(len(rec))
	s.bytesAppended.Add(uint64(len(rec)))
	r := ref{seg: active.id, off: off, n: int32(len(rec))}
	kind := kindPut
	if tombstone {
		kind = kindTombstone
	}
	s.applyEntry(kind, digestOf(key), r)
	return nil
}

func (s *Store) activeLocked() *segment { return s.segs[len(s.segs)-1] }

// rotateLocked opens a new active segment with an id above every
// existing one.
func (s *Store) rotateLocked() error {
	var next int32 = 1
	if len(s.segs) > 0 {
		if s.activeLocked().size == 0 {
			return nil // current active is still empty; reuse it
		}
		var err error
		if next, err = s.nextIDLocked(); err != nil {
			return err
		}
	}
	seg, err := s.openSegment(next)
	if err != nil {
		s.ioErrors.Add(1)
		return err
	}
	s.segs = append(s.segs, seg)
	s.segsCreated.Add(1)
	return nil
}

// nextIDLocked returns the id after the active segment's. Ids are int32,
// so that a ref holds one; a store that has used them all up refuses
// to rotate.
func (s *Store) nextIDLocked() (int32, error) {
	id := s.activeLocked().id
	if id == math.MaxInt32 {
		return 0, fmt.Errorf("persist: segment ids exhausted at %d", id)
	}
	return id + 1, nil
}

func (s *Store) totalBytesLocked() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.size
	}
	return n
}

// maybeCompactLocked runs after a rotation: compact when enough of the
// log is dead, then evict oldest segments while over the disk budget.
// Failures here degrade capacity, never correctness, so errors only
// bump counters.
func (s *Store) maybeCompactLocked(ctx context.Context) {
	total := s.totalBytesLocked()
	if s.dead > 0 && (float64(s.dead) >= compactMinDeadRatio*float64(total) ||
		(s.maxBytes > 0 && total > s.maxBytes)) {
		if err := s.compactLocked(ctx); err != nil {
			s.ioErrors.Add(1)
		}
		total = s.totalBytesLocked()
	}
	if s.maxBytes > 0 {
		for total > s.maxBytes && len(s.segs) > 1 {
			oldest := s.segs[0]
			for d, r := range s.index {
				if r.seg == oldest.id {
					delete(s.index, d)
					s.evictedKeys.Add(1)
				}
			}
			oldest.f.Close()
			_ = s.fs.Remove(oldest.path)
			total -= oldest.size
			s.segs = s.segs[1:]
		}
	}
}

// Compact rewrites all live records into one fresh segment and deletes
// the old ones. Safe against a crash at any point: the rewrite targets
// a *.tmp file that recovery discards, the rename makes it the
// highest-id segment (so its records win any overlap with the old
// ones), and the old segments are only removed after the rename lands.
func (s *Store) Compact(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.broken {
		return errBroken
	}
	return s.compactLocked(ctx)
}

func (s *Store) compactLocked(ctx context.Context) error {
	_, span := obs.Start(ctx, "persist-compact")
	defer span.End()

	old := s.segs
	newID, err := s.nextIDLocked()
	if err != nil {
		return err
	}
	path := s.segmentPath(newID)
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: compact open: %w", err)
	}
	abort := func(err error) error {
		f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}

	// Rewrite live records in stable (segment, offset) order for
	// reproducible output and sequential reads, each under the key read
	// back from the record itself.
	ds := make([]digest, 0, len(s.index))
	for d := range s.index {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool {
		a, b := s.index[ds[i]], s.index[ds[j]]
		if a.seg != b.seg {
			return a.seg < b.seg
		}
		return a.off < b.off
	})
	newRefs := make(map[digest]ref, len(ds))
	var off int64
	seg := &segment{id: newID, path: path}
	for _, d := range ds {
		r, from, _ := s.lookupLocked(d)
		kind, key, value, _, err := readRecordAt(from, r.off, r.end(), maxRecordLen)
		if err != nil || kind != kindPut || digestOf(key) != d {
			// Rot discovered during compaction: drop the record, count
			// it, and keep going — same contract as Get.
			s.corrupt.Add(1)
			delete(s.index, d)
			continue
		}
		rec := encodeRecord(kindPut, key, value)
		if _, err := f.WriteAt(rec, off); err != nil {
			return abort(fmt.Errorf("persist: compact write: %w", err))
		}
		newRefs[d] = ref{seg: newID, off: off, n: int32(len(rec))}
		off += int64(len(rec))
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("persist: compact sync: %w", err))
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		return abort(fmt.Errorf("persist: compact rename: %w", err))
	}
	seg.f, seg.size = f, off

	// The compacted segment is durable; the old ones are now garbage.
	for _, o := range old {
		o.f.Close()
		_ = s.fs.Remove(o.path)
	}
	s.segs = []*segment{seg}
	for d := range s.index {
		s.index[d] = newRefs[d]
	}
	s.dead = 0
	s.compactions.Add(1)
	span.SetAttr("live_keys", fmt.Sprint(len(s.index)))
	// Reopen a fresh active segment so the compacted one stays immutable.
	return s.rotateLocked()
}

// Sync fsyncs the active segment — the durability point for everything
// appended so far.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.activeLocked().f.Sync(); err != nil {
		s.ioErrors.Add(1)
		return err
	}
	return nil
}

// Close is the graceful path: fsync every segment, write the index
// snapshot atomically, and close the files. The next Open restores from
// the snapshot without scanning.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var firstErr error
	for _, seg := range s.segs {
		if err := seg.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil && !s.broken {
		if err := s.writeSnapshotLocked(); err != nil {
			firstErr = err
		}
	}
	s.closeAllLocked()
	return firstErr
}

// Kill closes the file handles without syncing or snapshotting — the
// crash path used by tests and by Server.Close. Recovery after Kill
// exercises the full scan-and-truncate path.
func (s *Store) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeAllLocked()
}

func (s *Store) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeAllLocked()
}

func (s *Store) closeAllLocked() {
	if s.closed {
		return
	}
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.closed = true
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	keys := len(s.index)
	segs := len(s.segs)
	disk := s.totalBytesLocked()
	dead := s.dead
	s.mu.RUnlock()
	return Stats{
		Keys:            keys,
		Segments:        segs,
		DiskBytes:       disk,
		DeadBytes:       dead,
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		BytesAppended:   s.bytesAppended.Load(),
		SegmentsCreated: s.segsCreated.Load(),
		Compactions:     s.compactions.Load(),
		CorruptRecords:  s.corrupt.Load(),
		TornTruncations: s.torn.Load(),
		IOErrors:        s.ioErrors.Load(),
		EvictedKeys:     s.evictedKeys.Load(),
		SnapshotRestore: s.restoredSnap.Load(),
	}
}
