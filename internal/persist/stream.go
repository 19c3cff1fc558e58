package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Wire streaming for warm-state migration: the export endpoint sends
// persisted records to a joining node using exactly the store's on-disk
// record framing — [u32 payloadLen][u32 crc32(payload)][payload] with a
// kindPut payload — so every byte on the wire is CRC-checked with the
// same code path that guards the log, and a truncated transfer is
// detected the same way a torn log tail is.

// WriteFrame writes one key/value record in the store's framing.
func WriteFrame(w io.Writer, key string, value []byte) error {
	_, err := w.Write(encodeRecord(kindPut, key, value))
	return err
}

// FrameReader decodes a stream of WriteFrame records.
type FrameReader struct {
	r   *bufio.Reader
	err error
}

// NewFrameReader wraps r for frame-at-a-time decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// Next returns the next record. io.EOF signals a clean end of stream
// (the stream ended exactly on a frame boundary); any other error means
// the stream was truncated mid-frame or a frame failed its checksum,
// and the reader stays failed.
func (f *FrameReader) Next() (key string, value []byte, err error) {
	if f.err != nil {
		return "", nil, f.err
	}
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(f.r, hdr[:]); err != nil {
		if err == io.EOF {
			f.err = io.EOF
		} else {
			f.err = fmt.Errorf("persist: truncated frame header: %w", err)
		}
		return "", nil, f.err
	}
	payloadLen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if payloadLen < minPayloadLen || payloadLen > maxRecordLen {
		f.err = fmt.Errorf("persist: frame length %d outside [%d, %d]", payloadLen, minPayloadLen, int64(maxRecordLen))
		return "", nil, f.err
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(f.r, payload); err != nil {
		f.err = fmt.Errorf("persist: truncated frame payload: %w", err)
		return "", nil, f.err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		f.err = fmt.Errorf("persist: frame checksum mismatch")
		return "", nil, f.err
	}
	kind, key, value, derr := decodePayload(payload)
	if derr != nil {
		f.err = fmt.Errorf("persist: undecodable frame: %w", derr)
		return "", nil, f.err
	}
	if kind != kindPut {
		f.err = fmt.Errorf("persist: unexpected frame kind %d", kind)
		return "", nil, f.err
	}
	return key, value, nil
}

// Export invokes fn for every live record whose key satisfies pred, in
// sorted key order so an export stream is deterministic for a given
// store state. The index holds only digests, so each record's key is
// read back from disk to apply pred and sort; values are then re-read
// (and CRC-verified) without touching the hit/miss counters — an
// export is replication traffic, not cache traffic. Records that fail
// verification mid-export are skipped (the store's read path
// quarantines them); fn's first error aborts the walk and is returned.
func (s *Store) Export(pred func(key string) bool, fn func(key string, value []byte) error) error {
	s.mu.RLock()
	ds := make([]digest, 0, len(s.index))
	for d := range s.index {
		ds = append(ds, d)
	}
	s.mu.RUnlock()
	var keys []string
	for _, d := range ds {
		if k, ok := s.keyOf(d); ok && (pred == nil || pred(k)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, ok := s.read(k, false)
		if !ok {
			continue // deleted or quarantined since the snapshot
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

// keyOf reads back the key of d's live record; false when d has left
// the index or its record does not verify.
func (s *Store) keyOf(d digest) (string, bool) {
	s.mu.RLock()
	r, f, ok := s.lookupLocked(d)
	s.mu.RUnlock()
	if !ok {
		return "", false
	}
	kind, key, _, _, err := readRecordAt(f, r.off, r.end(), maxRecordLen)
	return key, err == nil && kind == kindPut
}
