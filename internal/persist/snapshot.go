package persist

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The index snapshot lets a graceful restart skip the full log scan:
// Close writes the whole index (plus the exact size of every segment)
// as one checksummed frame, via a temp file and an atomic rename. Open
// trusts it only when the segment ids and byte sizes on disk match the
// snapshot exactly — any append, crash, or truncation after the
// snapshot makes the comparison fail and recovery falls back to the
// scan, so a stale or torn snapshot can never resurrect deleted keys
// or miss newer records.

type snapSegment struct {
	ID   int64 `json:"id"`
	Size int64 `json:"size"`
}

type snapEntry struct {
	Digest string `json:"d"` // hex
	Seg    int64  `json:"s"`
	Off    int64  `json:"o"`
	Len    int64  `json:"n"`
}

type snapFile struct {
	Version  int           `json:"version"`
	Segments []snapSegment `json:"segments"`
	Entries  []snapEntry   `json:"entries"`
}

// snapVersion 2 keys entries by digest; a version-1 snapshot (keyed by
// the keys themselves) fails to restore, and Open rebuilds the index by
// scanning.
const snapVersion = 2

func (s *Store) snapshotPath() string { return filepath.Join(s.dir, snapshotName) }

// writeSnapshotLocked serialises the index; callers hold s.mu.
func (s *Store) writeSnapshotLocked() error {
	snap := snapFile{Version: snapVersion}
	for _, seg := range s.segs {
		snap.Segments = append(snap.Segments, snapSegment{ID: int64(seg.id), Size: seg.size})
	}
	for d, r := range s.index {
		snap.Entries = append(snap.Entries, snapEntry{Digest: hex.EncodeToString(d[:]), Seg: int64(r.seg), Off: r.off, Len: int64(r.n)})
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)

	tmp := s.snapshotPath() + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(frame, 0); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	return s.fs.Rename(tmp, s.snapshotPath())
}

// restoreSnapshot loads the snapshot during Open. It returns false —
// meaning "scan instead" — on any framing, checksum, decode, or
// disk-mismatch problem; restore is an optimisation, never a source of
// truth.
func (s *Store) restoreSnapshot() bool {
	f, err := s.fs.OpenFile(s.snapshotPath(), os.O_RDONLY, 0)
	if err != nil {
		return false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.Size() < 8 || fi.Size() > 8+maxSnapshotLen {
		return false
	}
	frame := make([]byte, fi.Size())
	if _, err := f.ReadAt(frame, 0); err != nil {
		return false
	}
	payloadLen := int64(binary.LittleEndian.Uint32(frame[0:4]))
	if payloadLen != fi.Size()-8 {
		return false
	}
	payload := frame[8:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:8]) {
		return false
	}
	var snap snapFile
	if err := json.Unmarshal(payload, &snap); err != nil || snap.Version != snapVersion {
		return false
	}

	// The snapshot must describe exactly the segments on disk, byte for
	// byte: same id set, same sizes.
	if len(snap.Segments) != len(s.segs) {
		return false
	}
	byID := make(map[int64]*segment, len(s.segs))
	for _, seg := range s.segs {
		byID[int64(seg.id)] = seg
	}
	for _, ss := range snap.Segments {
		seg, ok := byID[ss.ID]
		if !ok || seg.size != ss.Size {
			return false
		}
	}

	index := make(map[digest]ref, len(snap.Entries))
	var live int64
	for _, e := range snap.Entries {
		seg, ok := byID[e.Seg]
		if !ok || e.Off < 0 || e.Len < recordHeaderLen+minPayloadLen || e.Len > maxRecordLen || e.Off+e.Len > seg.size {
			return false
		}
		var d digest
		if len(e.Digest) != hex.EncodedLen(len(d)) {
			return false
		}
		if _, err := hex.Decode(d[:], []byte(e.Digest)); err != nil {
			return false
		}
		index[d] = ref{seg: seg.id, off: e.Off, n: int32(e.Len)}
		live += e.Len
	}
	s.index = index
	s.dead = s.totalBytesLocked() - live
	s.restoredSnap.Store(true)
	return true
}
