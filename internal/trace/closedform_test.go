package trace

import (
	"testing"

	"primecache/internal/cache"
)

// TestPatternVector: strided and diagonal patterns, and only they, are
// one strided vector, and that vector makes the references the
// generators make.
func TestPatternVector(t *testing.T) {
	for _, p := range streamPatterns {
		start, stride, n, ok := p.Vector()
		name := p.Normalize().Name
		if want := name == "strided" || name == "diagonal"; ok != want {
			t.Errorf("%s: Vector ok = %v, want %v", p, ok, want)
		}
		if !ok {
			continue
		}
		got, want := Strided(start, stride, n, p.Normalize().Stream), generated(p)
		if len(got) != len(want) {
			t.Errorf("%s: vector has %d refs, generators %d", p, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: ref %d = %+v, want %+v", p, i, got[i], want[i])
				break
			}
		}
	}
}

// TestClosedForm: a covered job's closed form equals its replay, with
// and without the guard, and reports the guard's bound; the guard turns
// a wrong answer into an error; jobs outside the model are declined.
func TestClosedForm(t *testing.T) {
	prime5 := cache.Spec{Kind: "prime", C: 5} // 31 sets
	build := func(spec cache.Spec) cache.Sim {
		sim, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	for _, p := range []Pattern{
		{Name: "strided", Start: 7, Stride: 8, N: 100, Stream: 2},
		{Name: "diagonal", Start: 3, LD: 30, N: 40}, // stride 31: one set
	} {
		want, err := ReplayPattern(build(prime5), p, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, sim := range []cache.Sim{nil, build(prime5)} {
			got, guard, err := ClosedForm(sim, prime5, p, 3)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if got != want || guard != 2*(2*31+1) {
				t.Errorf("%s: closed form %v, guard %d; want replay %v, guard 126", p, got, guard, want)
			}
		}
	}
	// Stride 32 sweeps 31 sets of prime5 but one set of a 32-line
	// direct cache: replayed there, the guard must see the difference.
	p := Pattern{Name: "strided", Stride: 32, N: 40}
	if _, _, err := ClosedForm(build(cache.Spec{Kind: "direct", Lines: 32}), prime5, p, 2); err == nil {
		t.Error("guard replay on a cache of another spec passed")
	}
	for _, tc := range []struct {
		spec cache.Spec
		p    Pattern
	}{
		{prime5, Pattern{Name: "subblock", LD: 100, B1: 4, B2: 4}},
		{prime5, Pattern{Name: "fft", N: 64, B2: 8}},
		{cache.Spec{Kind: "assoc", Lines: 64, Ways: 4}, Pattern{Name: "strided", N: 16}},
		{prime5, Pattern{Name: "strided", Start: 1 << 62, N: 16}}, // outside [0, 2^62)
	} {
		if _, _, err := ClosedForm(nil, tc.spec, tc.p, 2); err == nil {
			t.Errorf("%s on %s: closed form accepted, want an error", tc.p, tc.spec)
		}
	}
}
