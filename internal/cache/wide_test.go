package cache

import (
	"fmt"
	"testing"
)

// checkWideFrames checks what ties a wide cache's frames to the
// history's nodes, through which its lookups go: every valid frame's
// node is the node of the frame's line, is held and names that frame,
// and every held node names a frame that holds its line.
func checkWideFrames(c *Cache) error {
	h := c.hist
	for f := range c.frames {
		w := &c.frames[f]
		if !w.valid {
			continue
		}
		if facts := h.facts[w.node]; h.lines[w.node] != w.line || facts.frame != int32(f) || facts.flags&nodeHeld == 0 {
			return fmt.Errorf("frame %d holds line %#x, but its node %d has line %#x, names frame %d and has flags %#x",
				f, w.line, w.node, h.lines[w.node], facts.frame, facts.flags)
		}
	}
	for n, facts := range h.facts {
		if facts.flags&nodeHeld == 0 {
			continue
		}
		if f := facts.frame; f < 0 || int(f) >= len(c.frames) || !c.frames[f].valid || c.frames[f].line != h.lines[n] {
			return fmt.Errorf("node %d of line %#x is held in frame %d, which does not hold it", n, h.lines[n], f)
		}
	}
	return nil
}

// CheckWideFrames is checkWideFrames for the external tests; sim must be
// a *Cache with wide sets.
func CheckWideFrames(sim Sim) error {
	c, ok := sim.(*Cache)
	if !ok || !c.wide {
		return fmt.Errorf("%s: not a Cache with wide sets", sim.Describe())
	}
	return checkWideFrames(c)
}

// TestWideSetsMatchScan runs a prefetching 32-way cache twice, once
// finding lines through the history's nodes and once with that switched
// off, so every lookup scans the set: demand accesses, prefetch fills,
// Contains and every counter must agree, and the frames and nodes of
// the indexed cache must name each other after every access. The scan
// is the definition the index must reproduce, for all three policies.
// A last batch of new lines grows the node arrays in its middle.
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
			if err := checkWideFrames(indexed.Cache()); err != nil {
				t.Fatalf("%v: after access %d: %v", policy, i, err)
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

		ic, sc := indexed.Cache(), scan.Cache()
		accs := make([]Access, 8192)
		for i := range accs {
			accs[i] = Access{Addr: (1<<20 + uint64(i%4096)*5) * 8, Stream: 3, Write: i%7 == 0}
		}
		nodes := cap(ic.hist.facts)
		got, want := make([]Result, len(accs)), make([]Result, len(accs))
		ic.AccessBatch(accs, got)
		sc.AccessBatch(accs, want)
		if cap(ic.hist.facts) < nodes+len(accs)/4 {
			t.Fatalf("%v: node arrays grew %d → %d; the batch must grow them", policy, nodes, cap(ic.hist.facts))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: batch access %d %+v: indexed %+v, scan %+v", policy, i, accs[i], got[i], want[i])
			}
		}
		if err := checkWideFrames(ic); err != nil {
			t.Fatalf("%v: after the batch: %v", policy, err)
		}
	}
}

// BenchmarkWideSets is the crossover behind wideWays: one
// fully-associative LRU set of 4 to 512 ways, run finding its lines
// through the history's nodes and by a scan of the ways. Under "hit" a
// cycle over as many lines as the set holds hits on every reference;
// under "miss" a cycle over twice as many misses and evicts on every
// one. Both runs classify their misses, so they differ only in the
// lookup and the victim choice.
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
					c := MustNew(Config{Mapper: m, Ways: ways})
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
