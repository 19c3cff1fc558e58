package cache_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/oracle"
	"primecache/internal/trace"
)

// foldSpy passes everything to the simulator it wraps and records
// every RepeatPass that simulator accepts.
type foldSpy struct {
	cache.BatchSim
	folds []fold
}

// fold is one accepted RepeatPass: the passes it stood for, and the
// runs of the references it was told of.
type fold struct{ times, runs uint64 }

func (s *foldSpy) RepeatPass(pass cache.Stats, times, runs uint64) bool {
	ok := s.BatchSim.RepeatPass(pass, times, runs)
	if ok {
		s.folds = append(s.folds, fold{times, runs})
	}
	return ok
}

// folded returns the passes s accepted in all.
func (s *foldSpy) folded() uint64 {
	var n uint64
	for _, f := range s.folds {
		n += f.times
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
// pass, and compares them. It returns the first, and the stats of its
// replay.
func (fc foldCase) pattern(t *testing.T, mk func() cache.Sim, p trace.Pattern) (*foldSpy, cache.Stats) {
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
	return folded, got
}

// accesses is pattern for passes of accs, which may store, as no
// Pattern does: the folded simulator runs accs and, after each run but
// the last, is asked to repeat that pass for the rest, as
// trace.ReplayPattern asks. It returns the folded simulator.
func (fc foldCase) accesses(t *testing.T, mk func() cache.Sim, accs []cache.Access) *foldSpy {
	t.Helper()
	folded, unrolled := &foldSpy{BatchSim: mk().(cache.BatchSim)}, mk()
	replay(folded, fc.prologue)
	replay(unrolled, fc.prologue)
	for run := 1; run <= fc.passes; run++ {
		before := folded.Stats()
		cache.AccessBatch(folded, accs, nil)
		if rest := fc.passes - run; rest > 0 && folded.RepeatPass(statsDelta(folded.Stats(), before), uint64(rest), uint64(run)) {
			break
		}
	}
	for i := 0; i < fc.passes; i++ {
		cache.AccessBatch(unrolled, accs, nil)
	}
	fc.compare(t, fmt.Sprintf("a pass of %d references", len(accs)), folded, unrolled)
	return folded
}

// statsDelta returns every counter of after less before.
func statsDelta(after, before cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:          after.Accesses - before.Accesses,
		Reads:             after.Reads - before.Reads,
		Writes:            after.Writes - before.Writes,
		Hits:              after.Hits - before.Hits,
		Misses:            after.Misses - before.Misses,
		Compulsory:        after.Compulsory - before.Compulsory,
		Capacity:          after.Capacity - before.Capacity,
		Conflict:          after.Conflict - before.Conflict,
		SelfInterference:  after.SelfInterference - before.SelfInterference,
		CrossInterference: after.CrossInterference - before.CrossInterference,
		Evictions:         after.Evictions - before.Evictions,
		Writebacks:        after.Writebacks - before.Writebacks,
		MemoryWrites:      after.MemoryWrites - before.MemoryWrites,
	}
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
// folds the passes after one that evicts nothing or once an LRU cache
// is in steady state, leaves the Stats, the
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
				spy, _ := fc.pattern(t, sims[name], p)
				folds += spy.folded()
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
		if spy, _ := fc.pattern(t, mk, trace.Pattern{Name: "strided", Stride: 1, N: 8, Stream: 1}); spy.folded() != 3 {
			t.Fatalf("folded %d passes, want the 3 after pass 2", spy.folded())
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

// sweepAccesses is every reference of one pass of p, twice over, and
// then n references drawn from g: a follow-up that revisits the lines
// the replay left, so a frame layout that differs shows in the Ways.
func sweepAccesses(t *testing.T, p trace.Pattern, g *oracle.Gen, n int) []cache.Access {
	t.Helper()
	tr, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	var accs []cache.Access
	for range 2 {
		for _, r := range tr {
			accs = append(accs, cache.Access{Addr: r.Addr, Write: r.Write, Stream: r.Stream})
		}
	}
	return append(accs, genAccesses(g, n)...)
}

// sweepSim is a named organisation and a strided sweep that evicts on
// every pass through it.
type sweepSim struct {
	name   string
	mk     func() (cache.Sim, error)
	stride int64
	n      int
}

// TestRepeatPassSteadyState checks the fold of passes that evict. Four
// passes of a sweep that misses on every reference fold at runs 2, the
// last two passes at once, on every organisation whose sets are LRU
// stacks and whose frames the sweep leaves as they were: direct- and
// prime-mapped caches, a 4-way LRU cache cycling a multiple of 4 lines
// through one set, a wide fully-associative cache, a prime-mapped
// 2-way cache and a victim cache. FIFO, Random, skewed and prefetching
// caches refuse every run, as does an LRU set cycling 3 lines through 2
// ways, whose layout rotates by a way each pass. So do a write-back
// pass that stores, and a pass that writes back a line a prologue
// dirtied. Every case must match the unrolled replay.
func TestRepeatPassSteadyState(t *testing.T) {
	g := oracle.NewGen(batchSeed + 29)
	lru := func(lines, ways int, policy cache.Policy) func() (cache.Sim, error) {
		return func() (cache.Sim, error) { return cache.NewSetAssoc(lines, ways, policy) }
	}
	folding := []sweepSim{
		{"direct", func() (cache.Sim, error) { return cache.NewDirect(16) }, 16, 2},
		{"prime", func() (cache.Sim, error) { return cache.NewPrime(5) }, 31, 2},
		{"assoc", lru(64, 4, cache.LRU), 16, 8},
		{"full", func() (cache.Sim, error) { return cache.NewFullyAssoc(16) }, 1, 32},
		{"prime-assoc", func() (cache.Sim, error) { return cache.NewPrimeAssoc(3, 2) }, 7, 4},
		{"victim", func() (cache.Sim, error) { return cache.NewVictim(16, 2) }, 16, 8},
	}
	refusing := []sweepSim{
		{"fifo", lru(64, 4, cache.FIFO), 16, 8},
		{"random", func() (cache.Sim, error) {
			m, err := cache.NewDirectMapper(16)
			if err != nil {
				return nil, err
			}
			return cache.New(cache.Config{Mapper: m, Ways: 4, Policy: cache.Random, Seed: 7})
		}, 16, 8},
		{"skewed", func() (cache.Sim, error) { return cache.NewSkewed(8) }, 1, 16},
		{"prefetch", func() (cache.Sim, error) { return newReusePrefetch(t), nil }, 16, 2},
		{"rotating", lru(2, 2, cache.LRU), 1, 3},
		// One set of 256 cycles 8 lines: 128 frames per reference, past
		// the bound on recording the frames for a fold.
		{"large-cache", lru(1024, 4, cache.LRU), 256, 8},
	}
	run := func(t *testing.T, c sweepSim) (*foldSpy, cache.Stats) {
		t.Helper()
		mk := func() cache.Sim {
			sim, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}
		p := trace.Pattern{Name: "strided", Start: 1 << 10, Stride: c.stride, N: c.n, Stream: 1}
		fc := foldCase{passes: 4, follow: sweepAccesses(t, p, g, 64)}
		return fc.pattern(t, mk, p)
	}
	for _, c := range folding {
		t.Run("fold/"+c.name, func(t *testing.T) {
			spy, st := run(t, c)
			if st.Hits != 0 {
				t.Fatalf("the sweep hit %d times; want every reference to miss", st.Hits)
			}
			if want := []fold{{times: 2, runs: 2}}; !reflect.DeepEqual(spy.folds, want) {
				t.Fatalf("folds %+v, want %+v", spy.folds, want)
			}
		})
	}
	for _, c := range refusing {
		t.Run("refuse/"+c.name, func(t *testing.T) {
			spy, st := run(t, c)
			if st.Evictions < 4 {
				t.Fatalf("%d evictions in 4 passes; want some in every pass", st.Evictions)
			}
			if len(spy.folds) != 0 {
				t.Fatalf("folded %+v", spy.folds)
			}
		})
	}

	// FIFO is not a stack algorithm, and a layout that repeats does not
	// make it steady: one set of 2 ways cycling this pass holds the same
	// frames after passes 1 and 2, yet pass 2 hits twice and pass 3
	// three times.
	t.Run("refuse/fifo-alternating", func(t *testing.T) {
		var accs []cache.Access
		for _, l := range []uint64{1, 4, 1, 3, 1, 2, 1} {
			accs = append(accs, lineAccess(l))
		}
		fc := foldCase{passes: 4, follow: accs}
		mk := func() cache.Sim {
			c, err := cache.NewSetAssoc(2, 2, cache.FIFO)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		if spy := fc.accesses(t, mk, accs); len(spy.folds) != 0 {
			t.Fatalf("folded %+v", spy.folds)
		}
	})

	// One set of 2 ways under write-back, through RepeatPass directly.
	// A pass that stores to each of 4 lines evicts and writes back on
	// every run. After a prologue that dirties x, a pass of [a, x, b]
	// writes x back in pass 2 and never again.
	writeBack := func() cache.Sim {
		m, err := cache.NewModuloMapper(1)
		if err != nil {
			t.Fatal(err)
		}
		return cache.MustNew(cache.Config{Mapper: m, Ways: 2, WriteBack: true})
	}
	store := func(l uint64) cache.Access { a := lineAccess(l); a.Write = true; return a }
	t.Run("refuse/write-back-stores", func(t *testing.T) {
		fc := foldCase{passes: 4, follow: []cache.Access{lineAccess(1), lineAccess(2), lineAccess(3), lineAccess(4)}}
		if spy := fc.accesses(t, writeBack, []cache.Access{store(1), store(2), store(3), store(4)}); len(spy.folds) != 0 {
			t.Fatalf("folded %+v", spy.folds)
		}
	})
	t.Run("refuse/dirty-prologue", func(t *testing.T) {
		const a, x, b = 1, 2, 3
		fc := foldCase{passes: 4, prologue: []cache.Access{store(x)},
			follow: []cache.Access{lineAccess(a), lineAccess(x), lineAccess(b), lineAccess(a)}}
		if spy := fc.accesses(t, writeBack, []cache.Access{lineAccess(a), lineAccess(x), lineAccess(b)}); len(spy.folds) != 0 {
			t.Fatalf("folded %+v", spy.folds)
		}
	})
}

// unfolded is a simulator whose RepeatPass refuses every pass, so a
// replay through it runs them all.
type unfolded struct{ cache.BatchSim }

func (unfolded) RepeatPass(cache.Stats, uint64, uint64) bool { return false }

// BenchmarkSteadyRecord replays 4 passes of an all-miss sweep, which
// cycles 8 lines through each of some sets of a 4-way LRU cache of 8192
// lines, on a flushed cache, at 8 and at 64 frames per reference of the
// pass: one row on each side of the bound (16 at 4 passes) up to which
// the cache records its frames at the first boundary and so may fold
// from the second. Each steady row has an unrolled twin that replays
// every pass.
func BenchmarkSteadyRecord(b *testing.B) {
	const lines, sets = 8192, 2048
	for _, perRef := range []int{8, 64} {
		// A stride of 2*perRef lines reaches sets/(2*perRef) sets, and 8
		// lines in each make a pass of lines/perRef references.
		p := trace.Pattern{Name: "strided", Stride: int64(2 * perRef), N: lines / perRef}
		for _, row := range []struct {
			name string
			wrap func(cache.BatchSim) cache.Sim
		}{
			{"steady", func(s cache.BatchSim) cache.Sim { return s }},
			{"unrolled", func(s cache.BatchSim) cache.Sim { return unfolded{s} }},
		} {
			b.Run(fmt.Sprintf("frames-per-ref=%d/%s", perRef, row.name), func(b *testing.B) {
				c, err := cache.NewSetAssoc(lines, 4, cache.LRU)
				if err != nil {
					b.Fatal(err)
				}
				sim := row.wrap(c)
				for i := 0; i < b.N; i++ {
					c.Flush()
					if _, err := trace.ReplayPattern(sim, p, 4); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4*p.N), "ns/ref")
			})
		}
	}
}

// FuzzRepeatPass is TestRepeatPassMatchesUnrolled's comparison on a
// fuzzer-chosen organisation (a seeded Spec of any kind, or a
// sequential prefetcher), pattern and pass count, after a prologue of
// up to 127 generated references, stores among them, so that folds
// from a warm, dirty cache are fuzzed too.
func FuzzRepeatPass(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(0), int16(1), uint16(16), uint8(4), uint8(0))
	f.Add(int64(2), uint8(3), uint8(0), uint16(40), int16(-3), uint16(12), uint8(3), uint8(24))
	f.Add(int64(3), uint8(5), uint8(2), uint16(7), int16(9), uint16(4), uint8(5), uint8(0))
	f.Add(int64(4), uint8(6), uint8(1), uint16(100), int16(31), uint16(30), uint8(2), uint8(64))
	f.Add(int64(5), uint8(7), uint8(0), uint16(0), int16(15), uint16(2), uint8(4), uint8(0))
	f.Add(int64(6), uint8(2), uint8(4), uint16(3), int16(8), uint16(64), uint8(6), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, kindSel, shape uint8, start uint16, stride int16, n uint16, passes, prologue uint8) {
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
		if size := int(prologue) % 128; size > 0 {
			fc.prologue = genAccesses(g, size)
		}
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
