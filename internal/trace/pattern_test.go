package trace

import (
	"math"
	"testing"

	"primecache/internal/cache"
)

func TestPatternBuildMatchesGenerators(t *testing.T) {
	cases := []struct {
		name string
		p    Pattern
		want Trace
	}{
		{"strided", Pattern{Name: "strided", Start: 8, Stride: 3, N: 5},
			Strided(8, 3, 5, 1)},
		{"diagonal", Pattern{Name: "diagonal", Start: 0, LD: 100, N: 4},
			Diagonal(0, 100, 4, 1)},
		{"subblock", Pattern{Name: "subblock", LD: 100, B1: 2, B2: 3},
			Subblock(0, 100, 2, 3, 1)},
		{"fft", Pattern{Name: "fft", N: 8, B2: 2},
			Concat(Strided(0, 2, 4, 1), Strided(1, 2, 4, 1))},
		{"rowcol capped", Pattern{Name: "rowcol", Start: 5, LD: 3, N: 10},
			Concat(Column(5, 3, 0, 1), Row(5, 3, 5, 0, 2))},
		{"rowcol uncapped", Pattern{Name: "rowcol", Start: 5, LD: 64, N: 8},
			Concat(Column(5, 64, 0, 1)[:4], Row(5, 64, 4, 0, 2))},
	}
	for _, tc := range cases {
		got, err := tc.p.Build()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %d refs, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: ref %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
				break
			}
		}
	}
}

func TestPatternRowcol(t *testing.T) {
	tr, err := Pattern{Name: "rowcol", LD: 64, N: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Four column refs (stride 1) then four row refs (stride 64).
	if len(tr) != 8 {
		t.Fatalf("rowcol n=8: got %d refs", len(tr))
	}
	if tr[1].Addr-tr[0].Addr != 8 {
		t.Errorf("column phase stride = %d bytes, want 8", tr[1].Addr-tr[0].Addr)
	}
	if tr[5].Addr-tr[4].Addr != 8*64 {
		t.Errorf("row phase stride = %d bytes, want %d", tr[5].Addr-tr[4].Addr, 8*64)
	}
}

func TestPatternValidate(t *testing.T) {
	for _, p := range []Pattern{
		{Name: "bogus"},
		{Name: "strided", N: -1},
		{Name: "subblock", LD: -5},
		{Name: "fft", N: 10, B2: 3}, // b2 does not divide n
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error, got nil", p)
		}
	}
	// Defaults validate for every pattern name.
	for _, name := range []string{"strided", "diagonal", "subblock", "rowcol", "fft"} {
		if err := (Pattern{Name: name}).Validate(); err != nil {
			t.Errorf("default %s pattern: %v", name, err)
		}
	}
}

func TestPatternRefCount(t *testing.T) {
	// RefCount must agree with len(Build()) for every generator,
	// including rowcol's column-sweep cap at ld.
	for _, p := range []Pattern{
		{Name: "strided", Stride: 3, N: 5},
		{Name: "strided"}, // defaults
		{Name: "diagonal", LD: 100, N: 4},
		{Name: "subblock", LD: 100, B1: 2, B2: 3},
		{Name: "rowcol", LD: 64, N: 8},
		{Name: "rowcol", LD: 4, N: 100}, // column sweep capped at ld
		{Name: "fft", N: 8, B2: 2},
	} {
		tr, err := p.Build()
		if err != nil {
			t.Errorf("Build(%+v): %v", p, err)
			continue
		}
		if got := p.RefCount(); got != len(tr) {
			t.Errorf("RefCount(%+v) = %d, len(Build()) = %d", p, got, len(tr))
		}
	}
	// Counts that would overflow int saturate instead of wrapping, so a
	// bound check against them always rejects.
	if got := (Pattern{Name: "subblock", B1: math.MaxInt, B2: 2}).RefCount(); got != math.MaxInt {
		t.Errorf("overflowing subblock RefCount = %d, want MaxInt", got)
	}
	if got := (Pattern{Name: "unknown"}).RefCount(); got != 0 {
		t.Errorf("unknown pattern RefCount = %d, want 0", got)
	}
}

func TestPatternStringCanonical(t *testing.T) {
	a := Pattern{Name: "strided"}.String()
	b := Pattern{Name: "strided", Stride: 1, N: 4096, Stream: 1, LD: 77, B1: 9}.String()
	if a != b {
		t.Errorf("canonical strings differ: %q vs %q", a, b)
	}
}

func TestReplayOnAnySim(t *testing.T) {
	// Replay accepts any cache.Sim, not just *cache.Cache.
	tr, err := Pattern{Name: "strided", Stride: 512, N: 256}.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"prime:c=5", "skewed:lines=64", "victim:lines=64,victim=4"} {
		s, err := cache.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		st := Replay(sim, tr)
		if st.Accesses != 256 {
			t.Errorf("%s: replay counted %d accesses, want 256", spec, st.Accesses)
		}
	}
}
