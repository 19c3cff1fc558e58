package cache

import "testing"

func TestNewPrefetchCacheValidation(t *testing.T) {
	c, _ := NewDirect(64)
	if _, err := NewPrefetchCache(nil, PrefetchSequential, 1); err == nil {
		t.Error("nil cache accepted")
	}
	if _, err := NewPrefetchCache(c, PrefetchSequential, 0); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := NewPrefetchCache(c, PrefetchKind(9), 1); err == nil {
		t.Error("unknown kind accepted")
	}
	p, err := NewPrefetchCache(c, PrefetchSequential, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cache() != c {
		t.Error("Cache() mismatch")
	}
}

func TestPrefetchKindString(t *testing.T) {
	for k, want := range map[PrefetchKind]string{
		PrefetchSequential: "sequential", PrefetchStride: "stride", PrefetchKind(9): "prefetch(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q", int(k), got)
		}
	}
}

func TestSequentialPrefetchUnitStride(t *testing.T) {
	// Unit-stride sweep with degree-1 sequential prefetch: each miss
	// fetches the next line, halving the demand miss count.
	c, _ := NewDirect(1024)
	p, _ := NewPrefetchCache(c, PrefetchSequential, 1)
	for w := uint64(0); w < 512; w++ {
		p.Access(Access{Addr: w * 8, Stream: 1})
	}
	s := p.Stats()
	if s.Misses != 256 {
		t.Errorf("misses = %d, want 256 (every other line prefetched)", s.Misses)
	}
	ps := p.PrefetchStats()
	if ps.Issued != 256 || ps.Useful != 256 {
		t.Errorf("prefetch issued/useful = %d/%d, want 256/256", ps.Issued, ps.Useful)
	}
	if acc := ps.Accuracy(); acc != 1 {
		t.Errorf("accuracy = %v, want 1", acc)
	}
}

func TestSequentialPrefetchDegree(t *testing.T) {
	// Degree 3: one miss per four lines.
	c, _ := NewDirect(1024)
	p, _ := NewPrefetchCache(c, PrefetchSequential, 3)
	for w := uint64(0); w < 512; w++ {
		p.Access(Access{Addr: w * 8, Stream: 1})
	}
	if s := p.Stats(); s.Misses != 128 {
		t.Errorf("misses = %d, want 128", s.Misses)
	}
}

func TestSequentialPrefetchPollutesOnLargeStride(t *testing.T) {
	// §2.2's complaint: with a non-unit stride, sequential prefetches are
	// pure pollution — issued but never touched.
	c, _ := NewDirect(1024)
	p, _ := NewPrefetchCache(c, PrefetchSequential, 2)
	for i := uint64(0); i < 256; i++ {
		p.Access(Access{Addr: i * 7 * 8, Stream: 1})
	}
	ps := p.PrefetchStats()
	if ps.Useful != 0 {
		t.Errorf("useful = %d, want 0 for stride 7", ps.Useful)
	}
	if ps.Issued == 0 {
		t.Error("no prefetches issued")
	}
	if s := p.Stats(); s.Misses != 256 {
		t.Errorf("misses = %d, want 256 (prefetching bought nothing)", s.Misses)
	}
}

func TestStridePrefetchLearnsStride(t *testing.T) {
	// Stride prefetch needs two consistent strides to arm, then removes
	// essentially all further misses of the stream.
	c, _ := NewDirect(8192)
	p, _ := NewPrefetchCache(c, PrefetchStride, 2)
	const stride, n = 13, 512
	for i := uint64(0); i < n; i++ {
		p.Access(Access{Addr: i * stride * 8, Stream: 1})
	}
	s := p.Stats()
	if s.Misses > 5 {
		t.Errorf("misses = %d, want ≤ 5 once the stride is armed", s.Misses)
	}
	ps := p.PrefetchStats()
	if ps.Useful < n-10 {
		t.Errorf("useful = %d, want ≈ %d", ps.Useful, n)
	}
}

func TestStridePrefetchPerStream(t *testing.T) {
	// Two interleaved streams with different strides are tracked
	// independently.
	c, _ := NewDirect(8192)
	p, _ := NewPrefetchCache(c, PrefetchStride, 1)
	const n = 256
	for i := uint64(0); i < n; i++ {
		p.Access(Access{Addr: i * 5 * 8, Stream: 1})
		p.Access(Access{Addr: (1<<20 + i*11) * 8, Stream: 2})
	}
	if s := p.Stats(); s.Misses > 10 {
		t.Errorf("misses = %d, want ≈ 4 (both streams armed)", s.Misses)
	}
}

func TestStridePrefetchResetOnChange(t *testing.T) {
	c, _ := NewDirect(8192)
	p, _ := NewPrefetchCache(c, PrefetchStride, 1)
	// Alternating strides never confirm.
	addrs := []uint64{0, 5, 7, 20, 21, 100}
	for _, a := range addrs {
		p.Access(Access{Addr: a * 8, Stream: 1})
	}
	if ps := p.PrefetchStats(); ps.Issued != 0 {
		t.Errorf("issued = %d, want 0 for erratic stream", ps.Issued)
	}
}

func TestPrefetchWastedCounting(t *testing.T) {
	// A tiny cache: prefetched lines get evicted before use.
	c, _ := NewDirect(2)
	p, _ := NewPrefetchCache(c, PrefetchSequential, 1)
	for i := uint64(0); i < 16; i++ {
		p.Access(Access{Addr: i * 4 * 8, Stream: 1}) // stride 4, prefetches always useless
	}
	ps := p.PrefetchStats()
	if ps.Wasted == 0 {
		t.Error("expected wasted prefetches in a 2-line cache")
	}
	if ps.Useful != 0 {
		t.Errorf("useful = %d, want 0", ps.Useful)
	}
}

func TestPrefetchDoesNotAlterDemandCorrectness(t *testing.T) {
	// The same demand trace with and without prefetching yields the same
	// hits-or-better and identical access counts, on a direct-mapped
	// cache and on a 32-way one, whose prefetch fills and demand
	// touches go through the line index.
	for _, mk := range []func() (*Cache, error){
		func() (*Cache, error) { return NewDirect(256) },
		func() (*Cache, error) { return NewSetAssoc(256, 32, LRU) },
	} {
		base, _ := mk()
		pc, _ := mk()
		p, _ := NewPrefetchCache(pc, PrefetchStride, 2)
		for pass := 0; pass < 2; pass++ {
			for i := uint64(0); i < 128; i++ {
				base.Access(Access{Addr: i * 3 * 8, Stream: 1})
				p.Access(Access{Addr: i * 3 * 8, Stream: 1})
			}
		}
		bs, ps := base.Stats(), p.Stats()
		if bs.Accesses != ps.Accesses {
			t.Errorf("%s: access counts differ: %d vs %d", base.Describe(), bs.Accesses, ps.Accesses)
		}
		if ps.Misses > bs.Misses {
			t.Errorf("%s: prefetching increased misses: %d > %d", base.Describe(), ps.Misses, bs.Misses)
		}
	}
}

func TestPrefetchAccuracyZeroWhenIdle(t *testing.T) {
	var s PrefetchStats
	if s.Accuracy() != 0 {
		t.Error("idle accuracy != 0")
	}
}

func TestPrefetchFillWritesBackDirtyVictim(t *testing.T) {
	// A store to line 1 prefetches line 2; a load of line 4 prefetches
	// line 5 into set 1, evicting the dirty line 1. That eviction is a
	// writeback like a demand miss's, though not a demand eviction.
	m, _ := NewDirectMapper(4)
	c := MustNew(Config{Mapper: m, Ways: 1, WriteBack: true})
	p, _ := NewPrefetchCache(c, PrefetchSequential, 1)
	p.Access(Access{Addr: 1 * 8, Write: true, Stream: 1})
	p.Access(Access{Addr: 4 * 8, Stream: 1})
	if c.Contains(1 * 8) {
		t.Fatal("line 1 still resident; the prefetch of line 5 should have evicted it")
	}
	s := p.Stats()
	if s.Writebacks != 1 || s.MemoryWrites != 1 {
		t.Errorf("writebacks/memory writes = %d/%d, want 1/1", s.Writebacks, s.MemoryWrites)
	}
	if s.Evictions != 0 {
		t.Errorf("evictions = %d, want 0: a prefetch fill's eviction is not a demand eviction", s.Evictions)
	}
}
