package trace

import (
	"testing"

	"primecache/internal/cache"
)

func words(t Trace) []uint64 {
	out := make([]uint64, len(t))
	for i, r := range t {
		out[i] = r.Addr / WordBytes
	}
	return out
}

func TestStrided(t *testing.T) {
	tr := Strided(10, 3, 4, 1)
	want := []uint64{10, 13, 16, 19}
	got := words(tr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("words = %v, want %v", got, want)
		}
		if tr[i].Write || tr[i].Stream != 1 {
			t.Fatalf("ref %d = %+v", i, tr[i])
		}
	}
	rev := Strided(10, -2, 3, 0)
	if w := words(rev); w[0] != 10 || w[1] != 8 || w[2] != 6 {
		t.Errorf("reverse words = %v", w)
	}
}

func TestStridedWrite(t *testing.T) {
	for _, r := range StridedWrite(0, 1, 3, 0) {
		if !r.Write {
			t.Fatal("StridedWrite produced a read")
		}
	}
}

func TestInterleave(t *testing.T) {
	a := Strided(0, 1, 3, 1)
	b := Strided(100, 1, 2, 2)
	got := words(Interleave(a, b))
	want := []uint64{0, 100, 1, 101, 2}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaved = %v, want %v", got, want)
		}
	}
}

func TestRepeatConcat(t *testing.T) {
	a := Strided(0, 1, 2, 0)
	if got := len(Repeat(a, 3)); got != 6 {
		t.Errorf("Repeat len = %d", got)
	}
	if Repeat(a, 0) != nil {
		t.Error("Repeat(_,0) should be nil")
	}
	if got := len(Concat(a, a, a)); got != 6 {
		t.Errorf("Concat len = %d", got)
	}
}

func TestRowColumnDiagonal(t *testing.T) {
	const p, q = 100, 50 // P×Q column-major
	col := Column(0, p, 3, 0)
	if len(col) != p || words(col)[0] != 300 || words(col)[1] != 301 {
		t.Errorf("Column: len=%d first=%v", len(col), words(col)[:2])
	}
	row := Row(0, p, q, 7, 0)
	if len(row) != q || words(row)[0] != 7 || words(row)[1] != 107 {
		t.Errorf("Row: len=%d first=%v", len(row), words(row)[:2])
	}
	d := Diagonal(0, p, 10, 0)
	if words(d)[1] != 101 || words(d)[2] != 202 {
		t.Errorf("Diagonal: %v", words(d)[:3])
	}
}

func TestSubblock(t *testing.T) {
	tr := Subblock(5, 100, 3, 2, 0)
	want := []uint64{5, 6, 7, 105, 106, 107}
	got := words(tr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subblock = %v, want %v", got, want)
		}
	}
}

func TestFFTStage(t *testing.T) {
	tr, err := FFTStage(0, 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 2, 1, 3, 4, 6, 5, 7}
	got := words(tr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fft stage = %v, want %v", got, want)
		}
	}
	if _, err := FFTStage(0, 7, 2, 0); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if _, err := FFTStage(0, 8, 8, 0); err == nil {
		t.Error("span ≥ n accepted")
	}
	if _, err := FFTStage(0, 8, 3, 0); err == nil {
		t.Error("non-dividing span accepted")
	}
}

func TestReplayDelta(t *testing.T) {
	c, _ := cache.NewDirect(16)
	s1 := Replay(c, Strided(0, 1, 16, 0))
	if s1.Accesses != 16 || s1.Misses != 16 || s1.Compulsory != 16 {
		t.Errorf("first replay: %+v", s1)
	}
	s2 := Replay(c, Strided(0, 1, 16, 0))
	if s2.Accesses != 16 || s2.Hits != 16 || s2.Misses != 0 {
		t.Errorf("second replay delta not isolated: %+v", s2)
	}
}

// TestReplayDeltaStores checks that a replay's delta carries the store
// traffic: every store reaches memory through a write-through cache,
// and a write-back cache writes back the dirty lines a replay evicts.
func TestReplayDeltaStores(t *testing.T) {
	wt, _ := cache.NewDirect(16)
	Replay(wt, StridedWrite(0, 1, 4, 0))
	if s := Replay(wt, StridedWrite(0, 1, 8, 0)); s.Writes != 8 || s.MemoryWrites != 8 || s.Writebacks != 0 {
		t.Errorf("write-through delta: %+v", s)
	}

	m, _ := cache.NewDirectMapper(16)
	wb, err := cache.New(cache.Config{Mapper: m, Ways: 1, WriteBack: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := Replay(wb, StridedWrite(0, 1, 8, 0)); s.MemoryWrites != 0 || s.Writebacks != 0 {
		t.Errorf("write-back delta before any eviction: %+v", s)
	}
	// Words 16..23 map to the sets words 0..7 dirtied.
	if s := Replay(wb, Strided(16, 1, 8, 0)); s.Evictions != 8 || s.Writebacks != 8 || s.MemoryWrites != 8 {
		t.Errorf("write-back delta: %+v", s)
	}
}

// TestPaperRowDiagonalTension reproduces the paper's §1 motivating
// observation: in any power-of-two cache, row accesses (stride P) and
// diagonal accesses (stride P+1) cannot both be conflict-free, while the
// prime-mapped cache handles both.
func TestPaperRowDiagonalTension(t *testing.T) {
	const p = 256 // leading dimension: rows stride 256, diagonal 257
	const n = 512 // elements accessed per pattern, < cache size

	direct, _ := cache.NewDirect(8192)
	prime, _ := cache.NewPrime(13)

	for name, c := range map[string]*cache.Cache{"direct": direct, "prime": prime} {
		rows := Replay(c, Repeat(Strided(0, p, n, 1), 2))
		diag := Replay(c, Repeat(Diagonal(1<<20, p, n, 2), 2))
		switch name {
		case "direct":
			// Stride 256 folds onto 32 lines: the second pass misses too.
			if rows.Conflict == 0 {
				t.Error("direct: row sweep should conflict")
			}
			if diag.Conflict != 0 {
				t.Error("direct: stride-257 diagonal is coprime to 8192; no conflicts expected")
			}
		case "prime":
			if rows.Conflict != 0 || diag.Conflict != 0 {
				t.Errorf("prime: conflicts rows=%d diag=%d, want 0", rows.Conflict, diag.Conflict)
			}
		}
	}
}
