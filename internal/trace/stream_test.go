package trace

import (
	"runtime"
	"testing"

	"primecache/internal/cache"
)

// streamPatterns covers every generator the cursor implements, with
// parameters that exercise multi-run patterns (subblock/fft emit one run
// per column) and the rowcol column-sweep cap.
var streamPatterns = []Pattern{
	{Name: "strided", Start: 8, Stride: 3, N: 1000},
	{Name: "strided", Start: 1 << 20, Stride: -7, N: 500, Stream: 2},
	{Name: "diagonal", Start: 5, LD: 100, N: 300},
	{Name: "subblock", Start: 3, LD: 100, B1: 17, B2: 9},
	{Name: "rowcol", LD: 64, N: 200},  // column sweep capped at ld
	{Name: "rowcol", LD: 512, N: 200}, // column sweep uncapped
	{Name: "fft", N: 1 << 10, B2: 16},
	{Name: "strided", N: 0}, // empty pass
}

// collect streams one pass through the cursor with the given buffer size.
func collect(t *testing.T, cur *Cursor, bufSize int) []cache.Access {
	t.Helper()
	var out []cache.Access
	buf := make([]cache.Access, bufSize)
	for {
		n := cur.Next(buf)
		if n == 0 {
			break
		}
		out = append(out, buf[:n]...)
	}
	return out
}

// TestCursorMatchesBuild proves the cursor emits exactly the references
// Pattern.Build materialises — same order, addresses, and stream ids —
// for every pattern kind and across buffer sizes that split runs at
// awkward boundaries.
func TestCursorMatchesBuild(t *testing.T) {
	for _, p := range streamPatterns {
		want, err := p.Build()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		cur, err := NewCursor(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, bufSize := range []int{1, 7, 64, 1023} {
			cur.Reset()
			got := collect(t, cur, bufSize)
			if len(got) != len(want) {
				t.Errorf("%s buf=%d: cursor emitted %d refs, Build has %d", p, bufSize, len(got), len(want))
				continue
			}
			for i := range got {
				w := cache.Access{Addr: want[i].Addr, Write: want[i].Write, Stream: want[i].Stream}
				if got[i] != w {
					t.Errorf("%s buf=%d: ref %d = %+v, want %+v", p, bufSize, i, got[i], w)
					break
				}
			}
		}
	}
}

// TestCursorResetRestartsPass checks Reset rewinds to the exact start of
// the pass, including from the middle of a multi-run pattern.
func TestCursorResetRestartsPass(t *testing.T) {
	p := Pattern{Name: "subblock", Start: 3, LD: 100, B1: 17, B2: 9}
	cur, err := NewCursor(p)
	if err != nil {
		t.Fatal(err)
	}
	first := collect(t, cur, 64)
	// Drain partway into the second run, then rewind.
	cur.Reset()
	var buf [23]cache.Access
	cur.Next(buf[:])
	cur.Reset()
	second := collect(t, cur, 64)
	if len(first) != len(second) {
		t.Fatalf("reset pass emitted %d refs, first pass %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("ref %d after reset = %+v, want %+v", i, second[i], first[i])
		}
	}
}

// TestReplayPatternMatchesReplay runs the same multi-pass workload through
// the streaming path and through Build+Replay on independent instances and
// requires identical stats deltas across cache organisations.
func TestReplayPatternMatchesReplay(t *testing.T) {
	specs := []string{"prime:c=5", "direct:lines=64", "skewed:lines=64", "victim:lines=64,victim=4"}
	for _, p := range streamPatterns {
		tr, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			s, err := cache.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			a, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			const passes = 3
			streamed, err := ReplayPattern(a, p, passes)
			if err != nil {
				t.Fatal(err)
			}
			var built cache.Stats
			for i := 0; i < passes; i++ {
				built.Add(Replay(b, tr))
			}
			if streamed != built {
				t.Errorf("%s on %s: streamed stats %+v, built stats %+v", p, spec, streamed, built)
			}
		}
	}
}

// countingSim is a BatchSim that only counts its references. A cache's
// classification history grows with the distinct lines it sees, which
// is legitimate state, not replay overhead; replaying into a counter
// isolates the replay path itself.
type countingSim struct{ stats cache.Stats }

func (s *countingSim) Access(cache.Access) cache.Result {
	s.stats.Accesses++
	return cache.Result{}
}

func (s *countingSim) AccessBatch(accs []cache.Access, _ []cache.Result) {
	s.stats.Accesses += uint64(len(accs))
}

func (s *countingSim) RepeatPass(cache.Stats, uint64, uint64) bool { return false }
func (s *countingSim) Stats() cache.Stats                          { return s.stats }
func (s *countingSim) Describe() string                            { return "counter" }
func (s *countingSim) Flush()                                      { s.stats = cache.Stats{} }

// TestReplayPatternBoundedMemory is the point of the streaming path: a
// 10^7-reference strided pass replays in O(1) memory. Materialising the
// trace would allocate 240 MB (24 bytes × 10^7 refs); the streaming
// replay must stay under one megabyte total.
func TestReplayPatternBoundedMemory(t *testing.T) {
	c := &countingSim{}
	const n = 10_000_000
	p := Pattern{Name: "strided", Stride: 3, N: n}

	// Warm once so one-time growth (batch scratch buffers) is excluded.
	if _, err := ReplayPattern(c, Pattern{Name: "strided", Stride: 3, N: 1024}, 1); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := ReplayPattern(c, p, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != n {
		t.Fatalf("replay counted %d accesses, want %d", st.Accesses, n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("streaming replay of %d refs allocated %d bytes, want ≤ %d", n, got, 1<<20)
	}
}
