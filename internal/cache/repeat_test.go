package cache_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/oracle"
	"primecache/internal/trace"
)

// foldSpy passes everything to the simulator it wraps and records the
// times of every RepeatPass that simulator accepts.
type foldSpy struct {
	cache.BatchSim
	folds []uint64
}

func (s *foldSpy) RepeatPass(pass cache.Stats, times uint64) bool {
	ok := s.BatchSim.RepeatPass(pass, times)
	if ok {
		s.folds = append(s.folds, times)
	}
	return ok
}

// folded returns the passes s accepted in all.
func (s *foldSpy) folded() uint64 {
	var n uint64
	for _, t := range s.folds {
		n += t
	}
	return n
}

// simCounters is every counter sim reports: its Stats and, for a
// victim or prefetch cache, the buffer's or the prefetcher's.
func simCounters(sim cache.Sim) string {
	s := fmt.Sprintf("%+v", sim.Stats())
	switch v := sim.(type) {
	case *cache.VictimCache:
		s += fmt.Sprintf(" %+v", v.VictimStats())
	case *cache.PrefetchCache:
		s += fmt.Sprintf(" %+v", v.PrefetchStats())
	}
	return s
}

// foldCase is one comparison of a folded and an unrolled replay: the
// simulators run prologue, then passes passes of the references, then
// follow.
type foldCase struct {
	prologue, follow []cache.Access
	passes           int
}

// compare requires the folded and the unrolled simulator to report the
// same counters, and then to answer every reference of follow alike.
func (fc foldCase) compare(t *testing.T, what string, folded *foldSpy, unrolled cache.Sim) {
	t.Helper()
	if got, want := simCounters(folded.BatchSim), simCounters(unrolled); got != want {
		t.Fatalf("%s on %s, %d passes folding %v:\n folded   %s\n unrolled %s",
			what, unrolled.Describe(), fc.passes, folded.folds, got, want)
	}
	got, want := replay(folded, fc.follow), replay(unrolled, fc.follow)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s on %s, %d passes folding %v: follow-up access %d (%+v):\n folded   %+v\n unrolled %+v",
				what, unrolled.Describe(), fc.passes, folded.folds, i, fc.follow[i], got[i], want[i])
		}
	}
}

// pattern replays fc.passes passes of p through a simulator built by mk
// in one trace.ReplayPattern call, and through another in one call per
// pass, and compares them. It returns the passes the first folded.
func (fc foldCase) pattern(t *testing.T, mk func() cache.Sim, p trace.Pattern) uint64 {
	t.Helper()
	folded, unrolled := &foldSpy{BatchSim: mk().(cache.BatchSim)}, mk()
	replay(folded, fc.prologue)
	replay(unrolled, fc.prologue)
	got, err := trace.ReplayPattern(folded, p, fc.passes)
	if err != nil {
		t.Fatal(err)
	}
	var want cache.Stats
	for i := 0; i < fc.passes; i++ {
		st, err := trace.ReplayPattern(unrolled, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(st)
	}
	if got != want {
		t.Fatalf("%s on %s, %d passes folding %v: ReplayPattern\n folded   %+v\n unrolled %+v",
			p, unrolled.Describe(), fc.passes, folded.folds, got, want)
	}
	fc.compare(t, p.String(), folded, unrolled)
	return folded.folded()
}

// accesses is pattern for passes of accs, which may store, as no
// Pattern does: the folded simulator runs accs once and is asked to
// repeat that pass for the rest, running them itself when it refuses.
func (fc foldCase) accesses(t *testing.T, mk func() cache.Sim, accs []cache.Access) {
	t.Helper()
	folded, unrolled := &foldSpy{BatchSim: mk().(cache.BatchSim)}, mk()
	replay(folded, fc.prologue)
	replay(unrolled, fc.prologue)
	before := folded.Stats()
	cache.AccessBatch(folded, accs, nil)
	pass := folded.Stats()
	pass.Accesses -= before.Accesses
	pass.Reads -= before.Reads
	pass.Writes -= before.Writes
	pass.Evictions -= before.Evictions
	if rest := fc.passes - 1; rest > 0 && !folded.RepeatPass(pass, uint64(rest)) {
		for i := 0; i < rest; i++ {
			cache.AccessBatch(folded, accs, nil)
		}
	}
	for i := 0; i < fc.passes; i++ {
		cache.AccessBatch(unrolled, accs, nil)
	}
	fc.compare(t, fmt.Sprintf("%d references with stores", len(accs)), folded, unrolled)
}

// repeatSims builds, by name, every organisation the fold is checked
// on: the reuse suite's (one per Spec kind, plus wide, FIFO and Random
// caches), a write-back cache, and sequential and stride prefetchers.
func repeatSims(t *testing.T) map[string]func() cache.Sim {
	sims := map[string]func() cache.Sim{}
	for name, spec := range reuseSpecs {
		sims[name] = func() cache.Sim {
			sim, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}
	}
	sims["write-back"] = func() cache.Sim {
		m, err := cache.NewModuloMapper(16)
		if err != nil {
			t.Fatal(err)
		}
		return cache.MustNew(cache.Config{Mapper: m, Ways: 4, WriteBack: true})
	}
	sims["prefetch"] = func() cache.Sim { return newReusePrefetch(t) }
	sims["prefetch-stride"] = func() cache.Sim {
		base, err := cache.NewSetAssoc(64, 4, cache.LRU)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cache.NewPrefetchCache(base, cache.PrefetchStride, 2)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return sims
}

// isPrefetch reports whether a repeatSims organisation prefetches.
func isPrefetch(name string) bool { return name == "prefetch" || name == "prefetch-stride" }

// TestRepeatPassMatchesUnrolled proves the replay fold exact: for every
// organisation of repeatSims, a multi-pass trace.ReplayPattern, which
// folds the passes after one that evicts nothing, leaves the Stats, the
// victim buffer's and the prefetcher's counters, and the Results of
// later references that one-pass replays give. Half the patterns are
// the oracle generator's, which mostly overflow these caches, and half
// short strided sweeps, which mostly fit; some replays follow a
// prologue that the first pass evicts. Each cache must fold some
// replays and a prefetcher none. The same holds for passes of
// references with stores, folded by RepeatPass directly.
func TestRepeatPassMatchesUnrolled(t *testing.T) {
	sims := repeatSims(t)
	names := make([]string, 0, len(sims))
	for name := range sims {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			g := oracle.NewGen(batchSeed + 5 + int64(i))
			rng := g.Rand()
			var folds uint64
			for trial := 0; trial < 40; trial++ {
				fc := foldCase{passes: 1 + rng.Intn(5), follow: genAccesses(g, 256)}
				if trial%3 == 2 {
					fc.prologue = genAccesses(g, 1+rng.Intn(64))
				}
				p := g.Pattern()
				if trial%2 == 1 {
					p = shortSweep(rng)
				}
				folds += fc.pattern(t, sims[name], p)
				fc.accesses(t, sims[name], genAccesses(g, 1+rng.Intn(48)))
			}
			switch {
			case isPrefetch(name) && folds != 0:
				t.Fatalf("a prefetcher folded %d passes", folds)
			case !isPrefetch(name) && folds == 0:
				t.Fatal("no replay folded, so the comparison shows nothing")
			}
		})
	}

	// Lines 16–31 fill a 16-line direct cache; the sweep of lines 0–7
	// evicts half of them on pass 1 and nothing on pass 2, so the fold
	// takes the last three of five passes.
	t.Run("fold-from-pass-3", func(t *testing.T) {
		fc := foldCase{passes: 5}
		for l := uint64(16); l < 32; l++ {
			fc.prologue = append(fc.prologue, lineAccess(l))
			fc.follow = append(fc.follow, lineAccess(l), lineAccess(l-16))
		}
		mk := func() cache.Sim {
			c, err := cache.NewDirect(16)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		if folds := fc.pattern(t, mk, trace.Pattern{Name: "strided", Stride: 1, N: 8, Stream: 1}); folds != 3 {
			t.Fatalf("folded %d passes, want the 3 after pass 2", folds)
		}
	})

	// Line 0's miss prefetches line 1, and line 15's miss prefetches
	// line 16, which evicts line 0 from the 16-line direct cache. The
	// pass evicts nothing the wrapped cache counts, yet line 0 misses on
	// every later pass: a prefetcher must not fold.
	t.Run("prefetch-evicts-pattern-line", func(t *testing.T) {
		fc := foldCase{passes: 4, follow: []cache.Access{lineAccess(0), lineAccess(15), lineAccess(16)}}
		p := trace.Pattern{Name: "strided", Stride: 15, N: 2, Stream: 1}
		mk := func() cache.Sim { return newReusePrefetch(t) }
		fc.pattern(t, mk, p)
		probe := newReusePrefetch(t)
		first, err := trace.ReplayPattern(probe, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		second, err := trace.ReplayPattern(probe, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if first.Evictions != 0 || second.Misses == 0 {
			t.Fatalf("pass 1 %+v, pass 2 %+v: want no eviction the cache counts, then a miss", first, second)
		}
	})
}

// FuzzRepeatPass is TestRepeatPassMatchesUnrolled's comparison on a
// fuzzer-chosen organisation (a seeded Spec of any kind, or a
// sequential prefetcher), pattern and pass count.
func FuzzRepeatPass(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(0), int16(1), uint16(16), uint8(4))
	f.Add(int64(2), uint8(3), uint8(0), uint16(40), int16(-3), uint16(12), uint8(3))
	f.Add(int64(3), uint8(5), uint8(2), uint16(7), int16(9), uint16(4), uint8(5))
	f.Add(int64(4), uint8(6), uint8(1), uint16(100), int16(31), uint16(30), uint8(2))
	f.Add(int64(5), uint8(7), uint8(0), uint16(0), int16(15), uint16(2), uint8(4))
	f.Add(int64(6), uint8(2), uint8(4), uint16(3), int16(8), uint16(64), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, kindSel, shape uint8, start uint16, stride int16, n uint16, passes uint8) {
		kinds := cache.SpecKinds()
		g := oracle.NewGen(seed)
		mk := func() cache.Sim { return newReusePrefetch(t) }
		if k := int(kindSel) % (len(kinds) + 1); k < len(kinds) {
			spec := g.SpecOfKind(kinds[k])
			mk = func() cache.Sim {
				sim, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				return sim
			}
		}
		ld := int(stride)
		if ld < 0 {
			ld = -ld
		}
		p := trace.Pattern{
			Name:   []string{"strided", "diagonal", "subblock", "rowcol", "fft"}[int(shape)%5],
			Start:  uint64(start) + 1<<16, // above any backward sweep's reach
			Stride: int64(stride),
			N:      1 + int(n)%512,
			LD:     1 + ld,
			B1:     1 + int(n)%24,
			B2:     []int{2, 4, 8}[int(n)%3],
			Stream: 1,
		}
		if p.Name == "fft" {
			p.N = p.B2 * (1 + int(n)%64)
		}
		if p.Validate() != nil {
			t.Skip()
		}
		fc := foldCase{passes: 1 + int(passes)%6, follow: genAccesses(g, 128)}
		fc.pattern(t, mk, p)
	})
}

// genAccesses draws a trace of at most n references, some of them
// stores, from g.
func genAccesses(g *oracle.Gen, n int) []cache.Access {
	tr := g.Trace(n)
	accs := make([]cache.Access, len(tr))
	for i, r := range tr {
		accs[i] = cache.Access{Addr: r.Addr, Write: r.Write, Stream: r.Stream}
	}
	return accs
}

// shortSweep is a strided pattern of at most 24 references and a small
// stride, which the caches of repeatSims often hold whole.
func shortSweep(rng *rand.Rand) trace.Pattern {
	stride := int64(rng.Intn(9) - 4)
	if stride == 0 {
		stride = 1
	}
	return trace.Pattern{Name: "strided", Start: uint64(128 + rng.Intn(1<<10)), Stride: stride, N: 1 + rng.Intn(24), Stream: 1 + rng.Intn(2)}
}
