package cache

import (
	"fmt"
	"testing"
)

func TestShadowLRUBasics(t *testing.T) {
	s := newShadow(2)
	if s.touch(1) {
		t.Error("first touch(1) should report absent")
	}
	if !s.touch(1) {
		t.Error("second touch(1) should report present")
	}
	s.touch(2)
	s.touch(1) // 1 MRU, 2 LRU
	s.touch(3) // evicts 2
	if s.touch(2) {
		t.Error("2 should have been evicted as LRU")
	}
	// touching 2 evicted 1? capacity 2: after touch(3): {1,3}; touch(2)
	// evicts 1.
	if s.touch(1) {
		t.Error("1 should have been evicted")
	}
	if s.len() != 2 {
		t.Errorf("len = %d, want 2", s.len())
	}
}

func TestShadowReset(t *testing.T) {
	s := newShadow(4)
	s.touch(1)
	s.touch(2)
	s.reset()
	if s.len() != 0 {
		t.Errorf("len after reset = %d", s.len())
	}
	if s.touch(1) {
		t.Error("reset should forget entries")
	}
}

func TestShadowMatchesReferenceLRU(t *testing.T) {
	// Cross-check against a simple slice-based reference implementation
	// with a pseudo-random access pattern. The larger capacities grow
	// the index and delete from it with long probe runs.
	for _, capacity := range []int{8, 100, 1000} {
		s := newShadow(capacity)
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
			if got, want := s.touch(line), refTouch(line); got != want {
				t.Fatalf("capacity %d step %d line %d: shadow=%v ref=%v", capacity, i, line, got, want)
			}
		}
		if s.len() != capacity {
			t.Errorf("capacity %d: len = %d after overflowing it", capacity, s.len())
		}
	}
}

// BenchmarkShadowSweep slides a window of 2048 strided lines through a
// full 64-entry shadow, so every touch misses, evicts and inserts: the
// index's worst case. Its cost per touch should not depend on the
// stride; a placement or load that clusters some stride's lines into
// long probe runs shows up as one slow row.
func BenchmarkShadowSweep(b *testing.B) {
	for _, stride := range []uint64{1, 16, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			s := newShadow(64)
			for i := 0; i < b.N; i++ {
				for j := uint64(0); j < 2048; j++ {
					s.touch(j * stride)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2048), "ns/touch")
		})
	}
}
