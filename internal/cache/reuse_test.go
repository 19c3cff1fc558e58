package cache_test

import (
	"testing"

	"primecache/internal/cache"
	"primecache/internal/oracle"
)

// reuseSpecs gives one small organisation of every Spec kind for the
// reuse suite, sized so the traces below fill and evict them, and under
// the names in extraNames two whose sets are wide enough to be found
// through the history's nodes, so Flush is shown to clear the nodes'
// frames and the recency lists in place, and a narrow and a wide
// Random-policy cache, so Flush is shown to re-seed the policy's source.
var reuseSpecs = map[string]cache.Spec{
	"prime":       {Kind: "prime", C: 7},
	"direct":      {Kind: "direct", Lines: 64},
	"assoc":       {Kind: "assoc", Lines: 64, Ways: 4, Policy: "fifo"},
	"full":        {Kind: "full", Lines: 16},
	"prime-assoc": {Kind: "prime-assoc", C: 5, Ways: 2},
	"skewed":      {Kind: "skewed", Lines: 64},
	"victim":      {Kind: "victim", Lines: 64, VictimLines: 4},
	"assoc-wide":  {Kind: "assoc", Lines: 64, Ways: 32, Policy: "fifo"},
	"full-wide":   {Kind: "full", Lines: 64},
	"random":      {Kind: "assoc", Lines: 64, Ways: 4, Policy: "random"},
	"random-wide": {Kind: "assoc", Lines: 64, Ways: 16, Policy: "random"},
}

// extraNames are the reuseSpecs beyond one per kind.
var extraNames = []string{"assoc-wide", "full-wide", "random", "random-wide"}

// wideNames are the reuseSpecs whose sets are wide.
var wideNames = map[string]bool{"assoc-wide": true, "full-wide": true, "random-wide": true}

// newReusePrefetch returns the PrefetchCache of the reuse suite: a
// sequential prefetcher over a 16-line direct-mapped cache.
func newReusePrefetch(t testing.TB) *cache.PrefetchCache {
	base, err := cache.NewDirect(16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cache.NewPrefetchCache(base, cache.PrefetchSequential, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// lineAccess is a load of line l (8-byte lines) by stream 1.
func lineAccess(l uint64) cache.Access { return cache.Access{Addr: l * 8, Stream: 1} }

// replay runs accs through sim one Access at a time and returns the
// per-access Results.
func replay(sim cache.Sim, accs []cache.Access) []cache.Result {
	out := make([]cache.Result, len(accs))
	for i, a := range accs {
		out[i] = sim.Access(a)
	}
	return out
}

// TestFlushReuseEquivalence proves that Flush restores a cache to its
// freshly built state although it keeps every table's capacity: for
// every Spec organisation and a PrefetchCache, running trace A, Flush,
// then trace B gives the Results and Stats a fresh cache gives for B.
// Trace A touches more lines than B, so the reused tables are larger
// than the fresh ones and lay lines out differently. A wide cache's
// frames and history nodes must name each other after the Flush and
// after B.
func TestFlushReuseEquivalence(t *testing.T) {
	g := oracle.NewGen(batchSeed + 4)
	toAccs := func(n int) []cache.Access { return genAccesses(g, n) }
	check := func(t *testing.T, mk func() cache.Sim, wide bool, a, b []cache.Access) {
		t.Helper()
		checkFrames := func(sim cache.Sim, when string) {
			t.Helper()
			if !wide {
				return
			}
			if err := cache.CheckWideFrames(sim); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}
		reused := mk()
		replay(reused, a)
		reused.Flush()
		checkFrames(reused, "after A and Flush")
		got := replay(reused, b)
		checkFrames(reused, "after A, Flush and B")
		fresh := mk()
		want := replay(fresh, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: access %d of B (%+v) after A and Flush:\n got %+v\nwant %+v",
					fresh.Describe(), i, b[i], got[i], want[i])
			}
		}
		if gs, ws := reused.Stats(), fresh.Stats(); gs != ws {
			t.Fatalf("%s: stats of B after A and Flush:\n got %v\nwant %v", fresh.Describe(), gs, ws)
		}
		type victimStats interface{ VictimStats() cache.VictimStats }
		if gv, ok := reused.(victimStats); ok && gv.VictimStats() != fresh.(victimStats).VictimStats() {
			t.Fatalf("victim stats of B after A and Flush: got %+v want %+v",
				gv.VictimStats(), fresh.(victimStats).VictimStats())
		}
		type prefetchStats interface{ PrefetchStats() cache.PrefetchStats }
		if gp, ok := reused.(prefetchStats); ok && gp.PrefetchStats() != fresh.(prefetchStats).PrefetchStats() {
			t.Fatalf("prefetch stats of B after A and Flush: got %+v want %+v",
				gp.PrefetchStats(), fresh.(prefetchStats).PrefetchStats())
		}
	}

	for _, name := range append(cache.SpecKinds(), extraNames...) {
		spec, ok := reuseSpecs[name]
		if !ok {
			t.Fatalf("no reuse spec %q", name)
		}
		t.Run(name, func(t *testing.T) {
			mk := func() cache.Sim {
				sim, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				return sim
			}
			for trial := 0; trial < 10; trial++ {
				check(t, mk, wideNames[name], toAccs(4096), toAccs(512))
			}
		})
	}

	t.Run("prefetch", func(t *testing.T) {
		// Line 0's miss prefetches line 1 into set 1; line 32's miss
		// (set 0) prefetches line 33, which evicts line 1 before any
		// demand touch. Line 1 then has an evictor but was never seen,
		// so its first demand touch is compulsory.
		prologue := []cache.Access{lineAccess(0), lineAccess(32)}
		probe := newReusePrefetch(t)
		replay(probe, prologue)
		if w := probe.PrefetchStats().Wasted; w != 1 {
			t.Fatalf("prologue wasted %d prefetches, want 1 (line 1 evicted untouched)", w)
		}
		if r := probe.Access(lineAccess(1)); r.Kind != cache.MissCompulsory {
			t.Fatalf("first demand touch of line 1 after its prefetch was evicted: %v, want compulsory", r.Kind)
		}
		// Trace A leaves that history behind; B starts on line 1.
		a := append(prologue, toAccs(2048)...)
		b := append([]cache.Access{lineAccess(1)}, toAccs(512)...)
		check(t, func() cache.Sim { return newReusePrefetch(t) }, false, a, b)
	})
}

// reuseTrace is the trace of the build and flush-replay benchmarks: a
// stride-512 sweep (the paper's conflict case) interleaved with a
// unit-stride sweep with stores, 2048 references in all, the size of
// one pattern pass in the perfbench kernels workload.
func reuseTrace() []cache.Access {
	accs := make([]cache.Access, 0, 2048)
	for i := 0; i < 1024; i++ {
		accs = append(accs,
			cache.Access{Addr: uint64(i) * 512 * 8, Stream: 1},
			cache.Access{Addr: 1<<30 + uint64(i)*8, Stream: 2, Write: i%3 == 0})
	}
	return accs
}

// benchSpecs are the organisations of the perfbench kernels workload.
var benchSpecs = []cache.Spec{
	{Kind: "prime", C: 13},
	{Kind: "direct", Lines: 8192},
	{Kind: "assoc", Lines: 8192, Ways: 4},
	{Kind: "full", Lines: 64},
	{Kind: "prime-assoc", C: 13, Ways: 2},
	{Kind: "skewed", Lines: 8192},
	{Kind: "victim", Lines: 8192},
}

// buildSink keeps BenchmarkBuild's result live.
var buildSink cache.Sim

// BenchmarkBuild measures Spec.Build per organisation: one frame array,
// the history and the shadow directory; the classification tables grow
// later, on first use.
func BenchmarkBuild(b *testing.B) {
	for _, spec := range benchSpecs {
		b.Run(spec.Kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim, err := spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				buildSink = sim
			}
		})
	}
}

// BenchmarkFlushReplay measures the reuse cycle of a long-lived cache:
// Flush, then one batch replay of reuseTrace. Once warm it allocates
// nothing, whatever the organisation.
func BenchmarkFlushReplay(b *testing.B) {
	accs := reuseTrace()
	for _, spec := range benchSpecs {
		b.Run(spec.Kind, func(b *testing.B) {
			sim, err := spec.Build()
			if err != nil {
				b.Fatal(err)
			}
			cache.AccessBatch(sim, accs, nil) // warm: tables at full size
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Flush()
				cache.AccessBatch(sim, accs, nil)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(accs))*float64(b.N)/b.Elapsed().Seconds(), "refs/sec")
		})
	}
}
