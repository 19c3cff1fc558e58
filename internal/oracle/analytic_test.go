package oracle

import (
	"math/rand"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/trace"
)

// TestStridedAnalyticDirected pins the closed form against replay on the
// regime boundaries: orbit exactly filled (n = o, n = C), one past the
// shadow capacity (n = C+1), degenerate one-set orbits (stride a
// multiple of C), power-of-two strides, backwards sweeps, and n = 1;
// then diagonals, whose stride is ld+1.
func TestStridedAnalyticDirected(t *testing.T) {
	type tc struct {
		spec   cache.Spec
		start  uint64
		stride int64
		n      int
		passes int
	}
	prime5 := cache.Spec{Kind: "prime", C: 5} // C = 31
	prime7 := cache.Spec{Kind: "prime", C: 7} // C = 127
	direct := cache.Spec{Kind: "direct", Lines: 64}
	cases := []tc{
		{prime5, 0, 1, 31, 3},         // unit stride, n = C: conflict-free fill
		{prime5, 0, 1, 32, 3},         // n = C+1: capacity regime
		{prime5, 100, 31, 10, 3},      // stride = C: one-set orbit
		{prime5, 100, 62, 40, 2},      // stride = 2C, n > C
		{prime5, 7, 32, 31, 3},        // stride = C+1 ≡ 1: conflict-free
		{prime5, 7, 8, 31, 2},         // power-of-two stride, prime C: coprime
		{prime7, 0, 64, 127, 3},       // 2^6 stride over 127 sets
		{prime7, 0, 64, 128, 2},       // same, one past capacity
		{direct, 0, 1, 64, 3},         // unit stride fills direct cache
		{direct, 0, 16, 64, 3},        // 2^4 stride folds onto 4 sets
		{direct, 0, 16, 6, 2},         // fold, n > o with q=1 remainder
		{direct, 5, 64, 9, 3},         // stride = C: one set
		{direct, 1 << 19, -3, 100, 2}, // backwards sweep
		{prime5, 9, 5, 1, 2},          // single element
		{direct, 3, 96, 130, 2},       // non-power-of-two stride, n > C
	}
	for _, c := range cases {
		p := trace.Pattern{Name: "strided", Start: c.start, Stride: c.stride, N: c.n}
		if err := verifyClosedForm(c.spec, p, c.passes); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		spec   cache.Spec
		ld, n  int
		passes int
	}{
		{prime5, 30, 31, 3},  // stride C: one-set orbit
		{prime5, 31, 40, 2},  // stride C+1 ≡ 1, n > C
		{direct, 63, 64, 3},  // stride 64 = C: one set
		{direct, 64, 64, 3},  // stride C+1: conflict-free fill
		{direct, 15, 20, 2},  // stride 16 folds onto 4 sets
		{prime7, 127, 10, 1}, // stride 128 ≡ 1
	} {
		p := trace.Pattern{Name: "diagonal", Start: 3, LD: c.ld, N: c.n}
		if err := verifyClosedForm(c.spec, p, c.passes); err != nil {
			t.Error(err)
		}
	}
	// StreamNone: conflict misses stay unattributed.
	p := trace.Pattern{Name: "strided", Stride: 62, N: 20, Stream: cache.StreamNone}
	if err := verifyClosedForm(prime5, p, 3); err != nil {
		t.Error(err)
	}
}

// TestStridedAnalyticRandomized hammers the metamorphic property far
// beyond the default suite's round count.
func TestStridedAnalyticRandomized(t *testing.T) {
	const seed, rounds = 20260806, 400
	t.Logf("seed %d", seed)
	p := stridedAnalyticProperty()
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		if err := p.Check(rng); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
}

// TestStridedAnalyticRejects pins the model's refusals: unsupported
// organisations, zero stride, and address ranges that could wrap.
func TestStridedAnalyticRejects(t *testing.T) {
	reject := []struct {
		name   string
		spec   cache.Spec
		start  uint64
		stride int64
		n      int
	}{
		{"assoc kind", cache.Spec{Kind: "assoc", Lines: 64, Ways: 4}, 0, 1, 16},
		{"skewed kind", cache.Spec{Kind: "skewed", Lines: 64}, 0, 1, 16},
		{"zero stride", cache.Spec{Kind: "prime", C: 5}, 0, 0, 16},
		{"huge start", cache.Spec{Kind: "prime", C: 5}, 1 << 62, 1, 16},
		{"wrapping sweep", cache.Spec{Kind: "prime", C: 5}, 0, 1 << 60, 16},
		{"negative past zero", cache.Spec{Kind: "direct", Lines: 64}, 10, -7, 16},
	}
	for _, c := range reject {
		if _, ok := cache.StridedSweepStats(c.spec, c.start, c.stride, c.n, 2, 1); ok {
			t.Errorf("%s: StridedSweepStats accepted spec=%s start=%d stride=%d n=%d, want rejection",
				c.name, c.spec, c.start, c.stride, c.n)
		}
	}
	if _, ok := cache.StridedSweepStats(cache.Spec{Kind: "prime", C: 5}, 0, 3, 16, 0, 1); ok {
		t.Error("StridedSweepStats accepted passes=0, want rejection")
	}
}
