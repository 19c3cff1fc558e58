package cache_test

// External test package: the equivalence suite drives the batch fast
// path with the oracle package's seeded generator and the trace
// package's replay, and both import cache.

import (
	"testing"

	"primecache/internal/cache"
	"primecache/internal/oracle"
	"primecache/internal/trace"
)

// batchSeed seeds the generator for the equivalence suite; log it so a
// failure reproduces from the test output alone.
const batchSeed = 20260806

// chunkSizes are the batch granularities the equivalence suite proves
// indistinguishable from one another: degenerate (1), odd and small (7),
// the common chunk (64), and larger-than-most-traces (1023).
var chunkSizes = []int{1, 7, 64, 1023}

// TestAccessBatchEquivalence proves chunking invariance for every Spec
// organisation: however a trace is split into AccessBatch calls, the
// per-access Results and the final Stats are byte-identical to the
// per-access replay's. Access is a batch of one, so the chunk-1 case
// holds by construction; the larger chunks are the real check.
func TestAccessBatchEquivalence(t *testing.T) {
	t.Logf("generator seed %d", batchSeed)
	for _, kind := range cache.SpecKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			g := oracle.NewGen(batchSeed)
			for trial := 0; trial < 25; trial++ {
				spec := g.SpecOfKind(kind)
				tr := g.Trace(2048)
				accs := make([]cache.Access, len(tr))
				for i, r := range tr {
					accs[i] = cache.Access{Addr: r.Addr, Write: r.Write, Stream: r.Stream}
				}

				ref, err := spec.Build()
				if err != nil {
					t.Fatalf("trial %d: build reference %q: %v", trial, spec, err)
				}
				want := make([]cache.Result, len(accs))
				for i, a := range accs {
					want[i] = ref.Access(a)
				}

				for _, chunk := range chunkSizes {
					sim, err := spec.Build()
					if err != nil {
						t.Fatalf("trial %d: build %q: %v", trial, spec, err)
					}
					got := make([]cache.Result, len(accs))
					for lo := 0; lo < len(accs); lo += chunk {
						hi := lo + chunk
						if hi > len(accs) {
							hi = len(accs)
						}
						cache.AccessBatch(sim, accs[lo:hi], got[lo:hi])
					}
					for i := range accs {
						if got[i] != want[i] {
							t.Fatalf("trial %d spec %q chunk %d: access %d (addr=%#x write=%v stream=%d):\n got %+v\nwant %+v",
								trial, spec, chunk, i, accs[i].Addr, accs[i].Write, accs[i].Stream, got[i], want[i])
						}
					}
					if gs, ws := sim.Stats(), ref.Stats(); gs != ws {
						t.Fatalf("trial %d spec %q chunk %d: stats diverge:\n got %v\nwant %v", trial, spec, chunk, gs, ws)
					}
					gv, gok := sim.(interface{ VictimStats() cache.VictimStats })
					rv, rok := ref.(interface{ VictimStats() cache.VictimStats })
					if gok && rok && gv.VictimStats() != rv.VictimStats() {
						t.Fatalf("trial %d spec %q chunk %d: victim stats diverge: got %+v want %+v",
							trial, spec, chunk, gv.VictimStats(), rv.VictimStats())
					}
				}
			}
		})
	}
}

// TestAccessBatchNilOut proves the stats-only mode (nil result slice)
// accumulates the same counters as the result-collecting mode.
func TestAccessBatchNilOut(t *testing.T) {
	g := oracle.NewGen(batchSeed + 1)
	for trial := 0; trial < 10; trial++ {
		spec := g.Spec()
		tr := g.Trace(1024)
		accs := make([]cache.Access, len(tr))
		for i, r := range tr {
			accs[i] = cache.Access{Addr: r.Addr, Write: r.Write, Stream: r.Stream}
		}
		a, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cache.AccessBatch(a, accs, nil)
		cache.AccessBatch(b, accs, make([]cache.Result, len(accs)))
		if a.Stats() != b.Stats() {
			t.Fatalf("trial %d spec %q: nil-out stats diverge:\n got %v\nwant %v", trial, spec, a.Stats(), b.Stats())
		}
	}
}

// TestAccessBatchPrefetch covers the PrefetchCache batch entry point,
// which is not reachable through Spec.Build.
func TestAccessBatchPrefetch(t *testing.T) {
	mk := func() *cache.PrefetchCache {
		base, err := cache.NewDirect(256)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cache.NewPrefetchCache(base, cache.PrefetchStride, 2)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	accs := make([]cache.Access, 4096)
	for i := range accs {
		accs[i] = cache.Access{Addr: uint64(i) * 8 * 17, Stream: 1, Write: i%13 == 0}
	}
	ref := mk()
	want := make([]cache.Result, len(accs))
	for i, a := range accs {
		want[i] = ref.Access(a)
	}
	for _, chunk := range chunkSizes {
		p := mk()
		got := make([]cache.Result, len(accs))
		for lo := 0; lo < len(accs); lo += chunk {
			hi := lo + chunk
			if hi > len(accs) {
				hi = len(accs)
			}
			cache.AccessBatch(p, accs[lo:hi], got[lo:hi])
		}
		for i := range accs {
			if got[i] != want[i] {
				t.Fatalf("chunk %d access %d: got %+v want %+v", chunk, i, got[i], want[i])
			}
		}
		if p.Stats() != ref.Stats() || p.PrefetchStats() != ref.PrefetchStats() {
			t.Fatalf("chunk %d: stats diverge: got %v/%v want %v/%v",
				chunk, p.Stats(), p.PrefetchStats(), ref.Stats(), ref.PrefetchStats())
		}
	}
}

// TestAccessSteadyStateAllocs proves that Access, a batch of one over
// stack arrays, allocates nothing once the cache is warm, for every Spec
// organisation and for a PrefetchCache. An allocation per call here means
// the one-element arrays escaped to the heap. It then proves that a warm
// cache is reused without allocating: Flush followed by a replay round
// allocates nothing, so Flush kept every table's capacity. Last, a
// 4-pass all-miss replay on an LRU 4-way and a fully-associative cache,
// which fold at runs 2, allocates no more than any other replay.
func TestAccessSteadyStateAllocs(t *testing.T) {
	// Two streams, a conflict-heavy stride-512 sweep and a unit-stride
	// sweep with stores, so the hit, miss and eviction paths all run.
	var accs []cache.Access
	for i := 0; i < 64; i++ {
		accs = append(accs,
			cache.Access{Addr: uint64(i) * 512 * 8, Stream: 1},
			cache.Access{Addr: uint64(i) * 8, Stream: 2, Write: i%3 == 0})
	}
	check := func(t *testing.T, sim cache.Sim) {
		t.Helper()
		for pass := 0; pass < 4; pass++ {
			for _, a := range accs {
				sim.Access(a)
			}
		}
		k := 0
		allocs := testing.AllocsPerRun(10*len(accs), func() {
			sim.Access(accs[k%len(accs)])
			k++
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state Access allocates %v times per call, want 0", sim.Describe(), allocs)
		}
		allocs = testing.AllocsPerRun(5, func() {
			sim.Flush()
			for _, a := range accs {
				sim.Access(a)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Flush and a replay round allocate %v times, want 0", sim.Describe(), allocs)
		}
		// A served job: Flush, then a streamed pattern replay, whose
		// chunk buffer is reused across replays. Only the cursor may
		// allocate.
		p := trace.Pattern{Name: "strided", Stride: 512, N: 1000, Stream: 1}
		allocs = testing.AllocsPerRun(5, func() {
			sim.Flush()
			if _, err := trace.ReplayPattern(sim, p, 2); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Fatalf("%s: Flush and a pattern replay allocate %v times, want at most 1 (the cursor)", sim.Describe(), allocs)
		}
	}
	checkSpec := func(t *testing.T, spec cache.Spec) {
		sim, err := spec.Build()
		if err != nil {
			t.Fatalf("build %q: %v", spec, err)
		}
		check(t, sim)
	}
	g := oracle.NewGen(batchSeed + 2)
	for _, kind := range cache.SpecKinds() {
		spec := g.SpecOfKind(kind)
		t.Run(kind, func(t *testing.T) { checkSpec(t, spec) })
	}
	// The generator need not draw a set wide enough for the line index,
	// nor the Random policy; these do.
	for _, name := range extraNames {
		t.Run(name, func(t *testing.T) { checkSpec(t, reuseSpecs[name]) })
	}
	for _, c := range []struct {
		name   string
		spec   cache.Spec
		stride int64
		n      int
	}{
		{"assoc-steady", cache.Spec{Kind: "assoc", Lines: 64, Ways: 4}, 16, 8},
		{"full-steady", cache.Spec{Kind: "full", Lines: 16}, 1, 32},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim, err := c.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			spy := &foldSpy{BatchSim: sim.(cache.BatchSim), folds: make([]fold, 0, 4)}
			p := trace.Pattern{Name: "strided", Stride: c.stride, N: c.n, Stream: 1}
			// Under the race detector sync.Pool drops a quarter of its
			// Puts, and a dropped chunk buffer is allocated anew by the
			// next replay: about 0.25 allocations a replay on average,
			// which 1000 runs keep below the one more that
			// AllocsPerRun's whole-number mean would report.
			allocs := testing.AllocsPerRun(1000, func() {
				sim.Flush()
				spy.folds = spy.folds[:0]
				if _, err := trace.ReplayPattern(spy, p, 4); err != nil {
					t.Fatal(err)
				}
			})
			if len(spy.folds) != 1 || spy.folds[0].runs != 2 || sim.Stats().Hits != 0 {
				t.Fatalf("%s: folds %+v, stats %v; want an all-miss replay folded at runs 2", sim.Describe(), spy.folds, sim.Stats())
			}
			if allocs > 1 {
				t.Fatalf("%s: Flush and a folded replay allocate %v times, want at most 1 (the cursor)", sim.Describe(), allocs)
			}
		})
	}
	t.Run("prefetch", func(t *testing.T) {
		base, err := cache.NewDirect(256)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cache.NewPrefetchCache(base, cache.PrefetchStride, 2)
		if err != nil {
			t.Fatal(err)
		}
		check(t, p)
	})
}

// benchStrided64 prepares a 64-element stride-512 sweep (the paper's
// canonical vector access) against the cache build returns, pre-warmed
// so the steady state is measured, and reports refs/sec.
func benchStrided64(b *testing.B, build func() (cache.Sim, error), batch bool) {
	sim, err := build()
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	accs := make([]cache.Access, n)
	for i := range accs {
		accs[i] = cache.Access{Addr: uint64(i) * 512 * 8, Stream: 1}
	}
	cache.AccessBatch(sim, accs, nil) // warm: steady-state passes only
	b.ResetTimer()
	if batch {
		bs, ok := sim.(cache.BatchSim)
		if !ok {
			b.Fatalf("%T does not implement BatchSim", sim)
		}
		for i := 0; i < b.N; i++ {
			bs.AccessBatch(accs, nil)
		}
	} else {
		for i := 0; i < b.N; i++ {
			for _, a := range accs {
				sim.Access(a)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "refs/sec")
}

// BenchmarkStrided64 compares the batched path with the per-access Sim
// interface (a batch of one per call) for the same 64-element strided
// sweep on each organisation, including the stride-prefetching wrapper
// over a small direct-mapped cache, which Spec.Build cannot assemble.
// The fully-associative rows are the perfbench kernels geometry (64
// lines) and the Spec default (8192 lines).
func BenchmarkStrided64(b *testing.B) {
	orgs := []struct {
		name  string
		build func() (cache.Sim, error)
	}{
		{"prime", cache.Spec{Kind: "prime", C: 13}.Build},
		{"direct", cache.Spec{Kind: "direct", Lines: 8192}.Build},
		{"assoc", cache.Spec{Kind: "assoc", Lines: 8192, Ways: 4}.Build},
		{"full", cache.Spec{Kind: "full", Lines: 64}.Build},
		{"full-8192", cache.Spec{Kind: "full"}.Build},
		{"skewed", cache.Spec{Kind: "skewed", Lines: 8192}.Build},
		{"victim", cache.Spec{Kind: "victim", Lines: 8192}.Build},
		{"prefetch", func() (cache.Sim, error) {
			base, err := cache.NewDirect(256)
			if err != nil {
				return nil, err
			}
			return cache.NewPrefetchCache(base, cache.PrefetchStride, 2)
		}},
	}
	for _, org := range orgs {
		b.Run(org.name+"/batch", func(b *testing.B) { benchStrided64(b, org.build, true) })
		b.Run(org.name+"/access", func(b *testing.B) { benchStrided64(b, org.build, false) })
	}
}
