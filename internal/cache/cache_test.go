package cache

import (
	"testing"
)

// readWord issues an 8-byte-aligned read of word index w on stream s.
func readWord(c *Cache, w uint64, s int) Result {
	return c.Access(Access{Addr: w * 8, Stream: s})
}

func TestDirectMappedBasics(t *testing.T) {
	c, err := NewDirect(8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lines() != 8 || c.LineBytes() != 8 {
		t.Fatalf("Lines=%d LineBytes=%d", c.Lines(), c.LineBytes())
	}
	r := readWord(c, 3, 0)
	if r.Hit {
		t.Error("first access should miss")
	}
	if r.Kind != MissCompulsory {
		t.Errorf("first miss kind = %v, want compulsory", r.Kind)
	}
	if r.Set != 3 {
		t.Errorf("word 3 mapped to set %d, want 3", r.Set)
	}
	if !readWord(c, 3, 0).Hit {
		t.Error("second access should hit")
	}
	// Word 11 conflicts with word 3 in an 8-line direct-mapped cache.
	r = readWord(c, 11, 0)
	if r.Hit || r.Set != 3 || !r.Evicted || r.EvictedLine != 3 {
		t.Errorf("word 11: %+v, want miss evicting line 3 in set 3", r)
	}
	r = readWord(c, 3, 0)
	if r.Hit {
		t.Error("word 3 should have been evicted")
	}
	if r.Kind != MissConflict {
		t.Errorf("re-miss kind = %v, want conflict", r.Kind)
	}
}

func TestStatsAccounting(t *testing.T) {
	c, _ := NewDirect(8)
	readWord(c, 0, 0)
	readWord(c, 0, 0)
	c.Access(Access{Addr: 8, Write: true, Stream: 0})
	s := c.Stats()
	if s.Accesses != 3 || s.Reads != 2 || s.Writes != 1 {
		t.Errorf("accesses/reads/writes = %d/%d/%d", s.Accesses, s.Reads, s.Writes)
	}
	if s.Hits != 1 || s.Misses != 2 || s.Compulsory != 2 {
		t.Errorf("hits/misses/compulsory = %d/%d/%d", s.Hits, s.Misses, s.Compulsory)
	}
	if s.MissRatio() < 0.66 || s.MissRatio() > 0.67 {
		t.Errorf("MissRatio = %v", s.MissRatio())
	}
	if got := s.HitRatio() + s.MissRatio(); got < 0.999 || got > 1.001 {
		t.Errorf("hit+miss ratio = %v, want 1", got)
	}
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("ResetStats did not zero stats")
	}
	if !readWord(c, 0, 0).Hit {
		t.Error("ResetStats should keep contents")
	}
}

func TestEmptyStatsRatios(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 || s.HitRatio() != 0 || s.InterferenceRatio() != 0 {
		t.Error("zero-access ratios should be 0")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 1, Hits: 1, Reads: 1}
	b := Stats{Accesses: 2, Misses: 2, Writes: 2, Conflict: 1, SelfInterference: 1}
	a.Add(b)
	if a.Accesses != 3 || a.Hits != 1 || a.Misses != 2 || a.Conflict != 1 || a.SelfInterference != 1 {
		t.Errorf("Add result %+v", a)
	}
}

func TestFlush(t *testing.T) {
	c, _ := NewDirect(8)
	readWord(c, 5, 0)
	c.Flush()
	if c.Stats().Accesses != 0 {
		t.Error("Flush should clear stats")
	}
	r := readWord(c, 5, 0)
	if r.Hit {
		t.Error("Flush should invalidate lines")
	}
	if r.Kind != MissCompulsory {
		t.Errorf("post-flush miss kind = %v, want compulsory (history cleared)", r.Kind)
	}
}

func TestCapacityVsConflictClassification(t *testing.T) {
	// Direct-mapped 4 lines. Stream through 8 distinct lines twice: the
	// second pass misses are capacity misses (fully-assoc LRU of 4 also
	// misses), not conflict.
	c, _ := NewDirect(4)
	for pass := 0; pass < 2; pass++ {
		for w := uint64(0); w < 8; w++ {
			readWord(c, w, 0)
		}
	}
	s := c.Stats()
	if s.Compulsory != 8 {
		t.Errorf("compulsory = %d, want 8", s.Compulsory)
	}
	if s.Capacity != 8 || s.Conflict != 0 {
		t.Errorf("capacity/conflict = %d/%d, want 8/0", s.Capacity, s.Conflict)
	}

	// Conversely: two lines that collide in a direct-mapped cache but fit
	// fully-associatively produce conflict misses.
	c2, _ := NewDirect(4)
	for i := 0; i < 4; i++ {
		readWord(c2, 0, 0)
		readWord(c2, 4, 0)
	}
	s2 := c2.Stats()
	if s2.Compulsory != 2 {
		t.Errorf("compulsory = %d, want 2", s2.Compulsory)
	}
	if s2.Conflict != 6 || s2.Capacity != 0 {
		t.Errorf("conflict/capacity = %d/%d, want 6/0", s2.Conflict, s2.Capacity)
	}
}

func TestSelfVsCrossInterference(t *testing.T) {
	// Lines 0 and 4 collide in set 0 of a 4-line direct cache.
	// Same stream ping-pong → self-interference.
	c, _ := NewDirect(4)
	readWord(c, 0, 1)
	readWord(c, 4, 1) // evicts 0 (stream 1)
	r := readWord(c, 0, 1)
	if !r.SelfInterference || r.CrossInterference {
		t.Errorf("same-stream conflict: %+v, want self-interference", r)
	}
	// Different streams → cross-interference.
	c2, _ := NewDirect(4)
	readWord(c2, 0, 1)
	readWord(c2, 4, 2) // stream 2 evicts stream 1's line
	r = readWord(c2, 0, 1)
	if !r.CrossInterference || r.SelfInterference {
		t.Errorf("cross-stream conflict: %+v, want cross-interference", r)
	}
	s := c2.Stats()
	if s.CrossInterference != 1 || s.SelfInterference != 0 {
		t.Errorf("stats cross/self = %d/%d, want 1/0", s.CrossInterference, s.SelfInterference)
	}
	// Streams beyond int32 are compared whole: 5 and 5+2^32 share
	// their low 32 bits but are different streams, and 5+2^32 against
	// itself is self-interference.
	const wide = 5 + 1<<32
	for _, tc := range []struct {
		evictor, missing int
		self             bool
	}{{wide, 5, false}, {5, wide, false}, {wide, wide, true}} {
		c3, _ := NewDirect(4)
		readWord(c3, 0, tc.missing)
		readWord(c3, 4, tc.evictor)
		r = readWord(c3, 0, tc.missing)
		if r.SelfInterference != tc.self || r.CrossInterference == tc.self {
			t.Errorf("stream %d evicted by %d: %+v, want self-interference %v", tc.missing, tc.evictor, r, tc.self)
		}
	}
}

func TestStreamNoneNotAttributed(t *testing.T) {
	c, _ := NewDirect(4)
	readWord(c, 0, StreamNone)
	readWord(c, 4, StreamNone)
	r := readWord(c, 0, StreamNone)
	if r.Kind != MissConflict {
		t.Fatalf("kind = %v, want conflict", r.Kind)
	}
	if r.SelfInterference || r.CrossInterference {
		t.Error("StreamNone conflicts must not be attributed")
	}
}

func TestSetAssocLRU(t *testing.T) {
	// 2 sets × 2 ways. Lines 0,2,4 all map to set 0.
	c, err := NewSetAssoc(4, 2, LRU)
	if err != nil {
		t.Fatal(err)
	}
	readWord(c, 0, 0)
	readWord(c, 2, 0)
	readWord(c, 0, 0) // 0 now MRU
	r := readWord(c, 4, 0)
	if r.EvictedLine != 2 {
		t.Errorf("LRU evicted line %d, want 2", r.EvictedLine)
	}
	if !readWord(c, 0, 0).Hit {
		t.Error("line 0 should still be resident")
	}
}

func TestSetAssocFIFO(t *testing.T) {
	c, _ := NewSetAssoc(4, 2, FIFO)
	readWord(c, 0, 0)
	readWord(c, 2, 0)
	readWord(c, 0, 0) // touch does not matter for FIFO
	r := readWord(c, 4, 0)
	if r.EvictedLine != 0 {
		t.Errorf("FIFO evicted line %d, want 0 (oldest fill)", r.EvictedLine)
	}
}

func TestSetAssocRandomDeterministic(t *testing.T) {
	run := func() []uint64 {
		m, _ := NewDirectMapper(2)
		c := MustNew(Config{Mapper: m, Ways: 2, Policy: Random, Seed: 42})
		var ev []uint64
		for w := uint64(0); w < 20; w += 2 {
			if r := readWord(c, w, 0); r.Evicted {
				ev = append(ev, r.EvictedLine)
			}
		}
		return ev
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("expected evictions")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random policy with equal seeds diverged")
		}
	}
}

func TestFullyAssociativeNoConflicts(t *testing.T) {
	c, err := NewFullyAssoc(8)
	if err != nil {
		t.Fatal(err)
	}
	// Stride-8 sweep that would thrash a direct-mapped cache fits fully
	// associatively.
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < 8; i++ {
			readWord(c, i*8, 0)
		}
	}
	s := c.Stats()
	if s.Conflict != 0 {
		t.Errorf("fully-associative cache recorded %d conflicts", s.Conflict)
	}
	if s.Misses != 8 {
		t.Errorf("misses = %d, want 8 compulsory only", s.Misses)
	}
}

func TestPrimeMappedStridedConflictFree(t *testing.T) {
	// The headline property, via the cache (not just the mapper): a
	// power-of-two stride sweep repeatedly hits after its compulsory
	// load in a prime-mapped cache, while a direct-mapped cache of
	// comparable size thrashes.
	prime, _ := NewPrime(13) // 8191 lines
	direct, _ := NewDirect(8192)
	const n, stride = 4096, 8192 / 16 // stride 512, 4096 elements
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < n; i++ {
			readWord(prime, i*stride, 0)
			readWord(direct, i*stride, 0)
		}
	}
	ps, ds := prime.Stats(), direct.Stats()
	if ps.Conflict != 0 {
		t.Errorf("prime-mapped conflicts = %d, want 0", ps.Conflict)
	}
	if ps.Misses != n {
		t.Errorf("prime-mapped misses = %d, want %d compulsory", ps.Misses, n)
	}
	if ds.Conflict == 0 {
		t.Error("direct-mapped cache should thrash on stride-512 sweep")
	}
	if ds.MissRatio() < 0.9 {
		t.Errorf("direct-mapped miss ratio = %v, want ≈ 1", ds.MissRatio())
	}
}

func TestUtilizationAndContains(t *testing.T) {
	c, _ := NewDirect(8)
	if c.Utilization() != 0 {
		t.Error("empty cache utilization != 0")
	}
	readWord(c, 1, 0)
	readWord(c, 2, 0)
	if got := c.Utilization(); got != 0.25 {
		t.Errorf("utilization = %v, want 0.25", got)
	}
	if !c.Contains(8) || c.Contains(0) {
		t.Error("Contains mismatch")
	}
}

func TestLineSizeSpatialLocality(t *testing.T) {
	// 64-byte lines: 8 consecutive words share a line, so a unit-stride
	// sweep misses once per 8 words.
	m, _ := NewDirectMapper(64)
	c := MustNew(Config{Mapper: m, Ways: 1, LineBytes: 64})
	for w := uint64(0); w < 256; w++ {
		readWord(c, w, 0)
	}
	s := c.Stats()
	if s.Misses != 32 {
		t.Errorf("misses = %d, want 32 (one per 64-byte line)", s.Misses)
	}
}

func TestCachePollutionLargeStride(t *testing.T) {
	// §2.2: with multi-word lines and a large stride, each access misses
	// anyway — the loaded excess words are pure pollution.
	m, _ := NewDirectMapper(64)
	c := MustNew(Config{Mapper: m, Ways: 1, LineBytes: 64})
	for i := uint64(0); i < 64; i++ {
		readWord(c, i*8, 0) // stride 8 words = one access per line
	}
	if s := c.Stats(); s.Hits != 0 {
		t.Errorf("hits = %d, want 0 (line size wasted by stride)", s.Hits)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil mapper accepted")
	}
	m, _ := NewDirectMapper(8)
	if _, err := New(Config{Mapper: m, Ways: 0}); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(Config{Mapper: m, Ways: 1, LineBytes: 12}); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	if _, err := New(Config{Mapper: m, Ways: 1, Policy: Policy(99)}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewSetAssoc(8, 3, LRU); err == nil {
		t.Error("non-divisible ways accepted")
	}
	if _, err := NewDirect(12); err == nil {
		t.Error("non-power-of-two direct size accepted")
	}
}

func TestMissKindString(t *testing.T) {
	for k, want := range map[MissKind]string{MissNone: "hit", MissCompulsory: "compulsory", MissCapacity: "capacity", MissConflict: "conflict", MissKind(9): "misskind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	for p, want := range map[Policy]string{LRU: "lru", FIFO: "fifo", Random: "random", Policy(9): "policy(9)"} {
		if got := p.String(); got != want {
			t.Errorf("Policy %d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestDescribe(t *testing.T) {
	c, _ := NewPrime(13)
	want := "prime-mapped 8191 sets × 1 ways × 8B lines (lru)"
	if got := c.Describe(); got != want {
		t.Errorf("Describe() = %q, want %q", got, want)
	}
}

func TestWriteThroughTraffic(t *testing.T) {
	c, _ := NewDirect(8) // write-through by default
	for i := 0; i < 5; i++ {
		c.Access(Access{Addr: 0, Write: true, Stream: 1})
	}
	s := c.Stats()
	if s.MemoryWrites != 5 {
		t.Errorf("MemoryWrites = %d, want 5 (write-through)", s.MemoryWrites)
	}
	if s.Writebacks != 0 {
		t.Errorf("Writebacks = %d, want 0", s.Writebacks)
	}
}

func TestWriteBackTraffic(t *testing.T) {
	m, _ := NewDirectMapper(8)
	c := MustNew(Config{Mapper: m, Ways: 1, WriteBack: true})
	// Five writes to the same resident line: zero memory traffic so far.
	for i := 0; i < 5; i++ {
		c.Access(Access{Addr: 0, Write: true, Stream: 1})
	}
	s := c.Stats()
	if s.MemoryWrites != 0 || s.Writebacks != 0 {
		t.Errorf("resident dirty line should not write memory yet: %+v", s)
	}
	// Evict it with a conflicting line: one writeback.
	c.Access(Access{Addr: 8 * 8, Stream: 1})
	s = c.Stats()
	if s.Writebacks != 1 || s.MemoryWrites != 1 {
		t.Errorf("after eviction: writebacks %d memwrites %d, want 1/1", s.Writebacks, s.MemoryWrites)
	}
	// A clean eviction does not write back.
	c.Access(Access{Addr: 16 * 8, Stream: 1})
	if s = c.Stats(); s.Writebacks != 1 {
		t.Errorf("clean eviction wrote back: %d", s.Writebacks)
	}
}

func TestWriteBackDirtyOnMissFill(t *testing.T) {
	m, _ := NewDirectMapper(8)
	c := MustNew(Config{Mapper: m, Ways: 1, WriteBack: true})
	c.Access(Access{Addr: 0, Write: true, Stream: 1}) // write miss → dirty fill
	c.Access(Access{Addr: 8 * 8, Stream: 1})          // evicts the dirty line
	if s := c.Stats(); s.Writebacks != 1 {
		t.Errorf("dirty-filled line eviction writebacks = %d, want 1", s.Writebacks)
	}
}

func TestWriteBackReducesTrafficOnReuse(t *testing.T) {
	// A kernel that rewrites the same block R times: write-through costs
	// R·B memory writes, write-back costs ≈ B.
	run := func(wb bool) Stats {
		m, _ := NewDirectMapper(64)
		c := MustNew(Config{Mapper: m, Ways: 1, WriteBack: wb})
		for pass := 0; pass < 8; pass++ {
			for w := uint64(0); w < 64; w++ {
				c.Access(Access{Addr: w * 8, Write: true, Stream: 1})
			}
		}
		// Flush-equivalent: evict everything to force final writebacks.
		for w := uint64(64); w < 128; w++ {
			c.Access(Access{Addr: w * 8, Stream: 1})
		}
		return c.Stats()
	}
	wt, wb := run(false), run(true)
	if wt.MemoryWrites != 512 {
		t.Errorf("write-through memory writes = %d, want 512", wt.MemoryWrites)
	}
	if wb.MemoryWrites != 64 {
		t.Errorf("write-back memory writes = %d, want 64", wb.MemoryWrites)
	}
}

func TestPrimeAssocExtension(t *testing.T) {
	if _, err := NewPrimeAssoc(12, 2); err == nil {
		t.Error("composite exponent accepted")
	}
	if _, err := NewPrimeAssoc(13, 0); err == nil {
		t.Error("zero ways accepted")
	}
	// Two lines congruent mod 8191 ping-pong in the direct prime cache
	// but coexist in the 2-way prime cache.
	direct, _ := NewPrime(13)
	assoc, _ := NewPrimeAssoc(13, 2)
	for i := 0; i < 16; i++ {
		for _, w := range []uint64{5, 5 + 8191} {
			direct.Access(Access{Addr: w * 8, Stream: 1})
			assoc.Access(Access{Addr: w * 8, Stream: 1})
		}
	}
	if s := direct.Stats(); s.Conflict == 0 {
		t.Error("prime direct should ping-pong on congruent lines")
	}
	if s := assoc.Stats(); s.Conflict != 0 {
		t.Errorf("prime 2-way conflicts = %d, want 0", s.Conflict)
	}
	// And strided sweeps stay conflict-free (the prime property is in the
	// mapper, not the associativity).
	sweep, _ := NewPrimeAssoc(13, 2)
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < 4096; i++ {
			sweep.Access(Access{Addr: i * 512 * 8, Stream: 1})
		}
	}
	if s := sweep.Stats(); s.Conflict != 0 {
		t.Errorf("prime 2-way strided conflicts = %d, want 0", s.Conflict)
	}
}
