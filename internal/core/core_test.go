package core

import (
	"testing"
	"testing/quick"

	"primecache/internal/cache"
	"primecache/internal/vcm"
)

func TestNewPrimeRejectsComposite(t *testing.T) {
	if _, err := NewPrime(12); err == nil {
		t.Error("composite Mersenne exponent accepted")
	}
	v, err := NewPrime(13)
	if err != nil {
		t.Fatal(err)
	}
	if v.Lines() != 8191 || !v.IsPrimeMapped() {
		t.Errorf("Lines=%d prime=%v", v.Lines(), v.IsPrimeMapped())
	}
}

func TestDatapathAgreesWithMapper(t *testing.T) {
	// The load path cross-checks every generated index against the
	// architectural mapping; a disagreement returns an error.
	v, _ := NewPrime(13)
	for _, tc := range []struct {
		start  uint64
		stride int64
		n      int
	}{
		{0, 1, 1000}, {12345, 8192, 5000}, {1 << 30, -7, 3000}, {42, 8191, 100},
	} {
		if _, err := v.LoadVector(tc.start, tc.stride, tc.n, 0); err != nil {
			t.Errorf("LoadVector(%d,%d,%d): %v", tc.start, tc.stride, tc.n, err)
		}
	}
}

// TestDatapathAgreesWithMapperProperty: a vector whose element
// addresses leave [0, 2^62) is rejected; every other vector's datapath
// indices agree with the mapper. With a 32-bit start and a 16-bit
// stride the only way out of the domain is below zero.
func TestDatapathAgreesWithMapperProperty(t *testing.T) {
	v, _ := NewPrime(7)
	f := func(start uint32, stride int16, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		_, err := v.LoadVector(uint64(start), int64(stride), n, 0)
		if last := int64(start) + int64(n-1)*int64(stride); last < 0 {
			return err != nil
		}
		return err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLoadVectorRejectsOutOfDomain pins vectors outside the address
// domain [0, 2^62). The first case is the input that made the property
// test above flake: element 118's address goes below zero.
func TestLoadVectorRejectsOutOfDomain(t *testing.T) {
	for _, tc := range []struct {
		c      uint
		start  uint64
		stride int64
		n      int
	}{
		{7, 0x33a487, -28797, 123},
		{7, 5, -1, 7},
		{13, 1 << 62, 1, 1},
		{13, 1<<62 - 10, 1, 11},
		{13, 0, 1 << 61, 3},
	} {
		v, err := NewPrime(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.LoadVector(tc.start, tc.stride, tc.n, 0); err == nil {
			t.Errorf("c=%d LoadVector(%#x, %d, %d) accepted a vector outside [0, 2^62)", tc.c, tc.start, tc.stride, tc.n)
		}
		if _, err := v.StoreVector(tc.start, tc.stride, tc.n, 0); err == nil {
			t.Errorf("c=%d StoreVector(%#x, %d, %d) accepted a vector outside [0, 2^62)", tc.c, tc.start, tc.stride, tc.n)
		}
	}
}

func TestLoadVectorCounts(t *testing.T) {
	v, _ := NewPrime(13)
	r, err := v.LoadVector(0, 1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Elements != 100 || r.Misses != 100 || r.Hits != 0 {
		t.Errorf("first load: %+v", r)
	}
	r, _ = v.LoadVector(0, 1, 100, 1)
	if r.Hits != 100 || r.Misses != 0 {
		t.Errorf("second load: %+v", r)
	}
}

func TestAdderStepsPerElement(t *testing.T) {
	// Steady state costs exactly one c-bit addition per element — the
	// paper's no-critical-path-increase claim. Start-up adds the stride
	// conversion and the starting-index folding.
	v, _ := NewPrime(13)
	r, _ := v.LoadVector(5, 3, 1000, 0)
	perElem := float64(r.AdderSteps) / float64(r.Elements)
	if perElem > 1.01 {
		t.Errorf("adder steps per element = %v, want ≈ 1", perElem)
	}
	if r.AdderSteps < 999 {
		t.Errorf("adder steps = %d, want ≥ n−1", r.AdderSteps)
	}
}

func TestDirectHasNoAdder(t *testing.T) {
	v, _ := NewDirect(8192)
	r, _ := v.LoadVector(0, 512, 100, 0)
	if r.AdderSteps != 0 || v.AdderSteps() != 0 {
		t.Error("direct-mapped cache should not use the Mersenne adder")
	}
	if v.IsPrimeMapped() {
		t.Error("direct cache claims prime mapping")
	}
}

func TestStoreVector(t *testing.T) {
	v, _ := NewPrime(13)
	if _, err := v.StoreVector(0, 2, 50, 0); err != nil {
		t.Fatal(err)
	}
	if s := v.Stats(); s.Writes != 50 {
		t.Errorf("writes = %d, want 50", s.Writes)
	}
}

func TestNegativeLengthRejected(t *testing.T) {
	v, _ := NewPrime(13)
	if _, err := v.LoadVector(0, 1, -1, 0); err == nil {
		t.Error("negative length accepted")
	}
	if r, err := v.LoadVector(0, 1, 0, 0); err != nil || r.Elements != 0 {
		t.Errorf("zero-length load: %+v, %v", r, err)
	}
}

func TestFlush(t *testing.T) {
	v, _ := NewPrime(13)
	v.LoadVector(0, 1, 10, 0)
	v.Flush()
	if v.Stats().Accesses != 0 || v.AdderSteps() != 0 {
		t.Error("Flush did not clear state")
	}
}

func TestPrimeVsDirectPowerOfTwoStrideReuse(t *testing.T) {
	// The paper's core comparison at the device level: repeatedly sweep a
	// 4K-element vector with stride 512. Direct: 16 lines reused → ~100%
	// misses. Prime: conflict-free → second pass all hits.
	prime, _ := NewPrime(13)
	direct, _ := NewDirect(8192)
	const n, stride = 4096, 512
	for pass := 0; pass < 2; pass++ {
		if _, err := prime.LoadVector(0, stride, n, 1); err != nil {
			t.Fatal(err)
		}
		direct.LoadVector(0, stride, n, 1)
	}
	ps, ds := prime.Stats(), direct.Stats()
	if ps.Hits != n {
		t.Errorf("prime second-pass hits = %d, want %d", ps.Hits, n)
	}
	if ds.Hits > n/100 {
		t.Errorf("direct hits = %d, expected thrashing", ds.Hits)
	}
}

func TestSelfVsCrossAttributionThroughVectors(t *testing.T) {
	// One stream whose stride folds onto a single set, re-swept: its own
	// elements evict each other → self-interference. The 16 distinct
	// lines fit fully-associatively, so the misses classify as conflict.
	d, _ := NewDirect(64)
	d.LoadVector(0, 64, 16, 1)
	d.LoadVector(0, 64, 16, 1)
	s := d.Stats()
	if s.SelfInterference == 0 {
		t.Errorf("self-interference = %d, want > 0", s.SelfInterference)
	}
	if s.CrossInterference != 0 {
		t.Errorf("cross-interference = %d, want 0", s.CrossInterference)
	}
	// Two streams whose footprints collide set-wise but fit
	// fully-associatively: stream 2 evicts stream 1 → cross-interference
	// on stream 1's re-access.
	d2, _ := NewDirect(64)
	d2.LoadVector(0, 1, 32, 1)
	d2.LoadVector(64, 1, 32, 2) // sets 0..31 again, 64 distinct lines total
	d2.LoadVector(0, 1, 32, 1)
	s2 := d2.Stats()
	if s2.CrossInterference == 0 {
		t.Errorf("cross-interference = %d, want > 0", s2.CrossInterference)
	}
	if s2.SelfInterference != 0 {
		t.Errorf("self-interference = %d, want 0", s2.SelfInterference)
	}
}

func TestLoadSubblockConflictFree(t *testing.T) {
	// §4: the maximal conflict-free sub-block of an arbitrary matrix
	// loads with zero conflicts and near-1 utilization, twice.
	const C = 8191
	for _, p := range []int{1000, 8000, 10000, 12345} {
		b1, b2, err := vcm.MaxConflictFreeBlock(C, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		v, _ := NewPrime(13)
		for pass := 0; pass < 2; pass++ {
			if _, err := v.LoadSubblock(0, p, b1, b2, 1); err != nil {
				t.Fatal(err)
			}
		}
		s := v.Stats()
		if s.Conflict != 0 {
			t.Errorf("P=%d b1=%d b2=%d: %d conflicts, want 0", p, b1, b2, s.Conflict)
		}
		if s.Hits != uint64(b1*b2) {
			t.Errorf("P=%d: second pass hits = %d, want %d", p, s.Hits, b1*b2)
		}
		if u := v.Cache().Utilization(); u < 0.75 {
			t.Errorf("P=%d: utilization %v, want ≈ 1", p, u)
		}
	}
}

func TestLoadSubblockDirectThrashes(t *testing.T) {
	// The same near-full blocking in a direct-mapped cache of 8192 lines
	// conflicts when the leading dimension is a power of two.
	v, _ := NewDirect(8192)
	// Leading dimension 8192: all columns image onto the same sets, so a
	// 2048×3 block (6144 words, comfortably inside the cache) folds its
	// three columns onto sets 0..2047 and conflicts on reuse.
	for pass := 0; pass < 2; pass++ {
		v.LoadSubblock(0, 8192, 2048, 3, 1)
	}
	if s := v.Stats(); s.Conflict == 0 {
		t.Error("direct-mapped sub-block should conflict")
	}
}

func TestWrapAndSetAssocBaselines(t *testing.T) {
	sa, err := NewSetAssoc(64, 4, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Lines() != 64 {
		t.Errorf("set-assoc lines = %d", sa.Lines())
	}
	fa, err := NewFullyAssoc(32)
	if err != nil {
		t.Fatal(err)
	}
	fa.LoadVector(0, 1024, 32, 0)
	fa.LoadVector(0, 1024, 32, 0)
	if s := fa.Stats(); s.Conflict != 0 || s.Hits != 32 {
		t.Errorf("fully-assoc stats: %+v", s)
	}
	raw, _ := cache.NewDirect(16)
	w := Wrap(raw)
	if w.Cache() != raw {
		t.Error("Wrap did not keep the cache")
	}
	if _, err := NewDirect(100); err == nil {
		t.Error("NewDirect(100) accepted")
	}
	if _, err := NewSetAssoc(100, 3, cache.LRU); err == nil {
		t.Error("NewSetAssoc invalid accepted")
	}
	if _, err := NewFullyAssoc(0); err == nil {
		t.Error("NewFullyAssoc(0) accepted")
	}
}

// TestAssociativityDoesNotHelpStrides reproduces §2.1's argument: for the
// same capacity, raising associativity shrinks the set count, so a
// power-of-two stride still reaches exactly the same number of line frames
// — "we will not see significant reduction in interference misses" — while
// the prime mapping removes them outright.
func TestAssociativityDoesNotHelpStrides(t *testing.T) {
	run := func(v *VectorCache) cache.Stats {
		const n, stride = 2048, 1024
		for pass := 0; pass < 4; pass++ {
			if _, err := v.LoadVector(0, stride, n, 1); err != nil {
				t.Fatal(err)
			}
		}
		return v.Stats()
	}
	direct, _ := NewDirect(8192)
	assoc, _ := NewSetAssoc(8192, 4, cache.LRU)
	prime, _ := NewPrime(13)
	ds, as, ps := run(direct), run(assoc), run(prime)
	if ps.Conflict != 0 {
		t.Errorf("prime conflicts = %d, want 0", ps.Conflict)
	}
	if as.Conflict != ds.Conflict {
		// stride 1024: direct reaches 8 sets; 4-way reaches 2 sets × 4
		// ways — 8 frames either way.
		t.Errorf("4-way conflicts %d != direct %d; §2.1 predicts identical frame reach", as.Conflict, ds.Conflict)
	}
	if ds.Conflict == 0 {
		t.Error("direct should conflict on the strided resweep")
	}
}

// TestAssociativityHelpsPingPong shows the flip side: when the per-set
// working set fits in the ways (two lines ping-ponging on one set),
// associativity does eliminate the conflicts — associativity's benefit is
// workload-shaped, the paper's reason to attack mapping instead.
func TestAssociativityHelpsPingPong(t *testing.T) {
	direct, _ := NewDirect(8192)
	assoc, _ := NewSetAssoc(8192, 2, cache.LRU)
	for i := 0; i < 16; i++ {
		for _, v := range []*VectorCache{direct, assoc} {
			v.LoadVector(0, 1, 1, 1)
			v.LoadVector(8192, 1, 1, 2)
		}
	}
	if s := direct.Stats(); s.Conflict == 0 {
		t.Error("direct ping-pong should conflict")
	}
	if s := assoc.Stats(); s.Conflict != 0 {
		t.Errorf("2-way ping-pong conflicts = %d, want 0", s.Conflict)
	}
}
