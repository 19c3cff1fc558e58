package cache

import (
	"fmt"
	"testing"
)

// shadowTouch references line through h, as a miss does, and reports
// whether the shadow held it: whether a fully-associative LRU cache of
// h's capacity would have hit.
func shadowTouch(h *history, line uint64) bool {
	return h.touch(h.node(line)) == MissConflict
}

func TestShadowLRUBasics(t *testing.T) {
	h := newHistory(2)
	if shadowTouch(h, 1) {
		t.Error("first touch(1) should report absent")
	}
	if !shadowTouch(h, 1) {
		t.Error("second touch(1) should report present")
	}
	shadowTouch(h, 2)
	shadowTouch(h, 1) // 1 MRU, 2 LRU
	shadowTouch(h, 3) // evicts 2
	if shadowTouch(h, 2) {
		t.Error("2 should have been evicted as LRU")
	}
	// touching 2 evicted 1? capacity 2: after touch(3): {1,3}; touch(2)
	// evicts 1.
	if shadowTouch(h, 1) {
		t.Error("1 should have been evicted")
	}
	if h.inShadow != 2 {
		t.Errorf("shadow holds %d lines, want 2", h.inShadow)
	}
	if len(h.lines) != 3 {
		t.Errorf("%d nodes, want one per line seen: 3", len(h.lines))
	}
}

func TestShadowReset(t *testing.T) {
	h := newHistory(4)
	shadowTouch(h, 1)
	shadowTouch(h, 2)
	h.reset()
	if h.inShadow != 0 || len(h.lines) != 0 {
		t.Errorf("after reset: %d lines in the shadow, %d nodes", h.inShadow, len(h.lines))
	}
	if h.touch(h.node(1)) != MissCompulsory {
		t.Error("reset should forget lines and their seen flags")
	}
}

func TestShadowMatchesReferenceLRU(t *testing.T) {
	// Cross-check against a simple slice-based reference implementation
	// with a pseudo-random access pattern. Every capacity overflows, so
	// lines leave the shadow by its tail and come back; the larger ones
	// grow the index and the node arrays.
	for _, capacity := range []int{2, 8, 100, 1000} {
		h := newHistory(capacity)
		var ref []uint64
		refTouch := func(line uint64) bool {
			for i, l := range ref {
				if l == line {
					ref = append(ref[:i], ref[i+1:]...)
					ref = append(ref, line)
					return true
				}
			}
			ref = append(ref, line)
			if len(ref) > capacity {
				ref = ref[1:]
			}
			return false
		}
		x := uint64(12345)
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			line := (x >> 33) % uint64(capacity*5/2)
			if got, want := shadowTouch(h, line), refTouch(line); got != want {
				t.Fatalf("capacity %d step %d line %d: shadow=%v ref=%v", capacity, i, line, got, want)
			}
		}
		if h.inShadow != capacity {
			t.Errorf("capacity %d: shadow holds %d lines after overflowing it", capacity, h.inShadow)
		}
	}
}

// TestFlushKeepsHistoryCapacity checks that Flush empties a cache's
// history in place: the node arrays and the index keep the size its
// largest working set gave them.
func TestFlushKeepsHistoryCapacity(t *testing.T) {
	c, err := NewPrime(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		c.Access(Access{Addr: i * 8 * 131, Stream: 1})
	}
	h := c.hist
	nodes, slots := cap(h.lines), len(h.index.slots)
	if nodes < 5000 || cap(h.links) != nodes || cap(h.facts) != nodes {
		t.Fatalf("after 5000 lines: node arrays of %d, %d and %d", nodes, cap(h.links), cap(h.facts))
	}
	c.Flush()
	if len(h.lines) != 0 || h.inShadow != 0 {
		t.Fatalf("after Flush: %d nodes, %d in the shadow", len(h.lines), h.inShadow)
	}
	if cap(h.lines) != nodes || cap(h.links) != nodes || cap(h.facts) != nodes || len(h.index.slots) != slots {
		t.Errorf("Flush resized the history: node arrays %d, %d, %d (was %d), index %d slots (was %d)",
			cap(h.lines), cap(h.links), cap(h.facts), nodes, len(h.index.slots), slots)
	}
}

// BenchmarkShadowSweep slides a window of 2048 strided lines through a
// full 64-entry shadow, as the misses of a 64-line cache would, so
// every touch finds its line's node by one probe, leaves the shadow's
// tail and enters its head: the miss path's worst case. Its cost per
// touch should not depend on the stride; a placement or load that
// clusters some stride's lines into long probe runs shows up as one
// slow row.
func BenchmarkShadowSweep(b *testing.B) {
	for _, stride := range []uint64{1, 16, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			h := newHistory(64)
			for i := 0; i < b.N; i++ {
				for j := uint64(0); j < 2048; j++ {
					h.touch(h.node(j * stride))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2048), "ns/touch")
		})
	}
}
