package persist

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func mustPut(t *testing.T, st *Store, key, value string) {
	t.Helper()
	if err := st.Put(context.Background(), key, []byte(value)); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func wantGet(t *testing.T, st *Store, key, value string) {
	t.Helper()
	got, ok := st.Get(key)
	if !ok {
		t.Fatalf("Get(%q): miss, want %q", key, value)
	}
	if string(got) != value {
		t.Fatalf("Get(%q) = %q, want %q", key, got, value)
	}
}

func wantMiss(t *testing.T, st *Store, key string) {
	t.Helper()
	if got, ok := st.Get(key); ok {
		t.Fatalf("Get(%q) = %q, want miss", key, got)
	}
}

// TestRefPointerFree pins the index entry's layout: a ref holds only
// integers, so the garbage collector never scans the index map, in 16
// bytes.
func TestRefPointerFree(t *testing.T) {
	typ := reflect.TypeOf(ref{})
	if typ.Size() != 16 {
		t.Errorf("ref is %d bytes, want 16", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Int32 && f.Type.Kind() != reflect.Int64 {
			t.Errorf("ref.%s is a %s, want an integer", f.Name, f.Type)
		}
	}
}

// TestSegmentIDsFitRef checks that segment ids stay within the int32 a
// ref holds: a store whose active segment has the last id refuses to
// rotate or compact, and Open refuses a segment file named above it.
func TestSegmentIDsFitRef(t *testing.T) {
	st := mustOpen(t, Options{Dir: t.TempDir()})
	mustPut(t, st, "a", "one")
	st.mu.Lock()
	st.activeLocked().id = math.MaxInt32
	rotErr, compErr := st.rotateLocked(), st.compactLocked(context.Background())
	st.mu.Unlock()
	st.Kill()
	if rotErr == nil || compErr == nil {
		t.Fatalf("rotate %v, compact %v past the last segment id; want errors", rotErr, compErr)
	}

	dir := t.TempDir()
	name := fmt.Sprintf("%s%016d%s", segmentPrefix, int64(math.MaxInt32)+1, segmentSuffix)
	if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := Open(Options{Dir: dir}); err == nil {
		st.Kill()
		t.Fatalf("Open accepted segment %s", name)
	}
}

func TestPutGetOverwriteDelete(t *testing.T) {
	st := mustOpen(t, Options{Dir: t.TempDir()})
	defer st.Kill()

	wantMiss(t, st, "absent")
	mustPut(t, st, "a", "one")
	mustPut(t, st, "b", "two")
	wantGet(t, st, "a", "one")
	wantGet(t, st, "b", "two")

	mustPut(t, st, "a", "one-prime")
	wantGet(t, st, "a", "one-prime")

	if err := st.Delete(context.Background(), "b"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	wantMiss(t, st, "b")
	if st.Keys() != 1 {
		t.Fatalf("Keys = %d, want 1", st.Keys())
	}

	stats := st.Stats()
	if stats.Hits != 3 || stats.Misses != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 3/2", stats.Hits, stats.Misses)
	}
	if stats.DeadBytes == 0 {
		t.Fatal("overwrite + delete should have accrued dead bytes")
	}
}

func TestReopenAfterKillScansLog(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 50; i++ {
		mustPut(t, st, fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
	}
	mustPut(t, st, "key-7", "rewritten")
	if err := st.Delete(context.Background(), "key-9"); err != nil {
		t.Fatal(err)
	}
	st.Kill() // crash: no sync, no snapshot

	st2 := mustOpen(t, Options{Dir: dir})
	defer st2.Kill()
	if st2.Stats().SnapshotRestore {
		t.Fatal("kill must not leave a usable snapshot")
	}
	wantGet(t, st2, "key-7", "rewritten")
	wantMiss(t, st2, "key-9")
	for i := 0; i < 50; i++ {
		if i == 7 || i == 9 {
			continue
		}
		wantGet(t, st2, fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
	}
}

func TestReopenAfterCloseRestoresSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 20; i++ {
		mustPut(t, st, fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := mustOpen(t, Options{Dir: dir})
	defer st2.Kill()
	if !st2.Stats().SnapshotRestore {
		t.Fatal("graceful close should let the next open restore from snapshot")
	}
	for i := 0; i < 20; i++ {
		wantGet(t, st2, fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
	}
}

// TestForeignSnapshotRescanned: a checksummed snapshot that matches the
// segments on disk byte for byte is still not restored when its entries
// are in the version-1 layout, which names keys rather than digests, or
// carry a malformed digest; Open scans the log instead and finds the
// same keys and values.
func TestForeignSnapshotRescanned(t *testing.T) {
	type v1Entry struct {
		Key string `json:"k"`
		Seg int64  `json:"s"`
		Off int64  `json:"o"`
		Len int64  `json:"n"`
	}
	for _, tc := range []struct {
		name    string
		rewrite func(snap snapFile, keyOf map[string]string) any
	}{
		{"version-1", func(snap snapFile, keyOf map[string]string) any {
			v1 := struct {
				Version  int           `json:"version"`
				Segments []snapSegment `json:"segments"`
				Entries  []v1Entry     `json:"entries"`
			}{Version: 1, Segments: snap.Segments}
			for _, e := range snap.Entries {
				v1.Entries = append(v1.Entries, v1Entry{Key: keyOf[e.Digest], Seg: e.Seg, Off: e.Off, Len: e.Len})
			}
			return v1
		}},
		{"long-digest", func(snap snapFile, _ map[string]string) any {
			snap.Entries[0].Digest += "00"
			return snap
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := mustOpen(t, Options{Dir: dir})
			want := map[string]string{}
			for i := 0; i < 20; i++ {
				k, v := fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i)
				mustPut(t, st, k, v)
				want[k] = v
			}
			mustPut(t, st, "key-3", "value-3-prime")
			want["key-3"] = "value-3-prime"
			if err := st.Delete(context.Background(), "key-5"); err != nil {
				t.Fatal(err)
			}
			delete(want, "key-5")
			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			// Rewrite the snapshot Close left, keeping its framing.
			path := filepath.Join(dir, snapshotName)
			frame, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var snap snapFile
			if err := json.Unmarshal(frame[8:], &snap); err != nil {
				t.Fatal(err)
			}
			keyOf := map[string]string{}
			for k := range want {
				d := digestOf(k)
				keyOf[hex.EncodeToString(d[:])] = k
			}
			payload, err := json.Marshal(tc.rewrite(snap, keyOf))
			if err != nil {
				t.Fatal(err)
			}
			frame = make([]byte, 8+len(payload))
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
			copy(frame[8:], payload)
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatal(err)
			}

			st2 := mustOpen(t, Options{Dir: dir})
			defer st2.Kill()
			if st2.Stats().SnapshotRestore {
				t.Fatal("the rewritten snapshot was restored")
			}
			if st2.Keys() != len(want) {
				t.Fatalf("rescan found %d keys, want %d", st2.Keys(), len(want))
			}
			for k, v := range want {
				wantGet(t, st2, k, v)
			}
			wantMiss(t, st2, "key-5")
		})
	}
}

func TestSnapshotIgnoredAfterFurtherWrites(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir})
	mustPut(t, st, "a", "one")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Write more, then crash: the old snapshot no longer matches disk.
	st2 := mustOpen(t, Options{Dir: dir})
	mustPut(t, st2, "b", "two")
	st2.Kill()

	st3 := mustOpen(t, Options{Dir: dir})
	defer st3.Kill()
	if st3.Stats().SnapshotRestore {
		t.Fatal("stale snapshot must not be trusted after further appends")
	}
	wantGet(t, st3, "a", "one")
	wantGet(t, st3, "b", "two")
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir, SegmentBytes: 512})
	defer st.Kill()

	// Rewrite a small key set many times: most of the log is dead, so
	// rotation must trigger compaction and shrink disk usage.
	for round := 0; round < 40; round++ {
		for i := 0; i < 4; i++ {
			mustPut(t, st, fmt.Sprintf("key-%d", i), fmt.Sprintf("round-%d-value-%d", round, i))
		}
	}
	for i := 0; i < 4; i++ {
		wantGet(t, st, fmt.Sprintf("key-%d", i), fmt.Sprintf("round-39-value-%d", i))
	}
	stats := st.Stats()
	if stats.Compactions == 0 {
		t.Fatalf("expected at least one compaction, stats=%+v", stats)
	}
	if stats.SegmentsCreated == 0 {
		t.Fatal("expected segment rotation")
	}
	if stats.DiskBytes > 4096 {
		t.Fatalf("compaction should bound disk usage, got %d bytes", stats.DiskBytes)
	}
}

func TestMaxBytesEvictsOldestSegments(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir, SegmentBytes: 256, MaxBytes: 1024})
	defer st.Kill()

	// Distinct keys only: nothing is dead, so staying under MaxBytes
	// must come from dropping whole old segments.
	for i := 0; i < 200; i++ {
		mustPut(t, st, fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i))
	}
	stats := st.Stats()
	if stats.EvictedKeys == 0 {
		t.Fatalf("expected evictions under MaxBytes pressure, stats=%+v", stats)
	}
	if stats.DiskBytes > 2048 {
		t.Fatalf("disk usage %d way over budget", stats.DiskBytes)
	}
	// The newest keys must have survived.
	wantGet(t, st, "key-199", "value-199")
}

func TestCompactionPreservesEverythingAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir, SegmentBytes: 1 << 20})
	for i := 0; i < 30; i++ {
		mustPut(t, st, fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
	}
	mustPut(t, st, "key-3", "rewritten")
	if err := st.Delete(context.Background(), "key-5"); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(context.Background()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	wantGet(t, st, "key-3", "rewritten")
	wantMiss(t, st, "key-5")
	if st.Stats().DeadBytes != 0 {
		t.Fatalf("dead bytes after compact = %d, want 0", st.Stats().DeadBytes)
	}
	st.Kill()

	st2 := mustOpen(t, Options{Dir: dir})
	defer st2.Kill()
	wantGet(t, st2, "key-3", "rewritten")
	wantMiss(t, st2, "key-5")
	for i := 0; i < 30; i++ {
		if i == 3 || i == 5 {
			continue
		}
		wantGet(t, st2, fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
	}
}

func TestGetVerifiesChecksumOnRead(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir})
	defer st.Kill()
	mustPut(t, st, "poisoned", "payload-bytes-here")

	// Flip a value byte behind the store's back.
	seg := filepath.Join(dir, "seg-0000000000000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	wantMiss(t, st, "poisoned")
	if st.Stats().CorruptRecords == 0 {
		t.Fatal("read-time checksum failure must be counted corrupt")
	}
	// The poisoned entry is dropped, not retried forever.
	if st.Has("poisoned") {
		t.Fatal("corrupt record should be expelled from the index")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	st := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 4096})
	defer st.Kill()
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%10)
				if err := st.Put(context.Background(), key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
		go func(w int) {
			for i := 0; i < 100; i++ {
				st.Get(fmt.Sprintf("w%d-k%d", w, i%10))
			}
			done <- nil
		}(w)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestClosedStoreRejectsMutations(t *testing.T) {
	st := mustOpen(t, Options{Dir: t.TempDir()})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(context.Background(), "k", []byte("v")); err == nil {
		t.Fatal("Put on closed store should fail")
	}
	if _, ok := st.Get("k"); ok {
		t.Fatal("Get on closed store should miss")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double Close should be a no-op, got %v", err)
	}
}
