package cache

import (
	"fmt"
	"testing"
)

// TestWideSetsMatchScan runs a prefetching 32-way cache twice, once
// finding lines through its index and once with the index switched off,
// so every lookup scans the set: demand accesses, prefetch fills,
// Contains and every counter must agree. The scan is the definition the
// index must reproduce, for all three policies.
func TestWideSetsMatchScan(t *testing.T) {
	for _, policy := range []Policy{LRU, FIFO, Random} {
		mk := func(indexed bool) *PrefetchCache {
			c, err := NewSetAssoc(256, 32, policy)
			if err != nil {
				t.Fatal(err)
			}
			if !c.wide {
				t.Fatalf("%s: not indexed", c.Describe())
			}
			c.wide = indexed
			p, err := NewPrefetchCache(c, PrefetchStride, 2)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		indexed, scan := mk(true), mk(false)
		x := uint64(7)
		for i := 0; i < 20000; i++ {
			// A stride-3 stream the prefetcher arms on, over more lines
			// than fit, against pseudo-random stores from a second one.
			a := Access{Addr: uint64(i%700) * 3 * 8, Stream: 1}
			if i%3 == 2 {
				x = x*6364136223846793005 + 1442695040888963407
				a = Access{Addr: (x >> 33) % 1024 * 8, Stream: 2, Write: true}
			}
			if got, want := indexed.Access(a), scan.Access(a); got != want {
				t.Fatalf("%v: access %d %+v: indexed %+v, scan %+v", policy, i, a, got, want)
			}
			probe := (x >> 20) % 1024 * 8
			if got, want := indexed.Cache().Contains(probe), scan.Cache().Contains(probe); got != want {
				t.Fatalf("%v: after access %d, Contains(%#x): indexed %v, scan %v", policy, i, probe, got, want)
			}
		}
		if indexed.Stats() != scan.Stats() || indexed.PrefetchStats() != scan.PrefetchStats() {
			t.Fatalf("%v: stats: indexed %v %+v, scan %v %+v", policy,
				indexed.Stats(), indexed.PrefetchStats(), scan.Stats(), scan.PrefetchStats())
		}
	}
}

// BenchmarkWideSets is the crossover behind wideWays: one
// fully-associative LRU set of 4 to 512 ways, run with the line index
// and with a scan of the ways. Under "hit" a cycle over as many lines as
// the set holds hits on every reference; under "miss" a cycle over twice
// as many misses and evicts on every one. Classification is off, so the
// two runs differ only in the lookup and the victim choice.
func BenchmarkWideSets(b *testing.B) {
	for _, ways := range []int{4, 8, 16, 32, 64, 512} {
		for _, load := range []struct {
			name  string
			lines int
		}{{"hit", ways}, {"miss", 2 * ways}} {
			accs := make([]Access, 1024)
			for i := range accs {
				accs[i] = Access{Addr: uint64(i%load.lines) * DefaultLineBytes}
			}
			for _, indexed := range []bool{false, true} {
				strategy := "scan"
				if indexed {
					strategy = "index"
				}
				b.Run(fmt.Sprintf("ways=%d/%s/%s", ways, load.name, strategy), func(b *testing.B) {
					m, err := NewModuloMapper(1)
					if err != nil {
						b.Fatal(err)
					}
					c := MustNew(Config{Mapper: m, Ways: ways, DisableClassify: true})
					switch {
					case indexed && !c.wide:
						c.makeWide()
					case !indexed:
						c.wide = false
					}
					c.AccessBatch(accs, nil) // warm: the set is full
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.AccessBatch(accs, nil)
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accs)), "ns/ref")
				})
			}
		}
	}
}
