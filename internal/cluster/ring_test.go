package cluster

import (
	"fmt"
	"testing"
)

func testBackends(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8372", i+1)
	}
	return out
}

func testKeys(n int) []string {
	// Keys shaped like real job keys: structured, near-duplicate
	// strings — the population a weak hash would cluster.
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("simulate|prime:c=13|strided:stride=%d,n=4096|passes=2", 2*i+1)
	}
	return out
}

func TestRingRejectsBadInput(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Error("duplicate backend accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Error("empty backend name accepted")
	}
}

func TestRingDeterministicAndOrderInvariant(t *testing.T) {
	a, err := NewRing([]string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"z", "x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(500) {
		if a.Primary(k) != b.Primary(k) {
			t.Fatalf("placement depends on construction order for %q: %s vs %s", k, a.Primary(k), b.Primary(k))
		}
	}
	if a.Points() != 3*RingVirtualNodes {
		t.Errorf("points = %d, want %d", a.Points(), 3*RingVirtualNodes)
	}
}

func TestRingSpreadsStructuredKeys(t *testing.T) {
	backends := testBackends(3)
	r, err := NewRing(backends)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	keys := testKeys(9000)
	for _, k := range keys {
		counts[r.Primary(k)]++
	}
	for _, b := range backends {
		frac := float64(counts[b]) / float64(len(keys))
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("backend %s owns %.1f%% of structured keys, want a reasonable spread (counts %v)", b, 100*frac, counts)
		}
	}
}

// TestRingConsistency is the consistent-hashing property: removing one
// backend must not move any key between the survivors.
func TestRingConsistency(t *testing.T) {
	backends := testBackends(4)
	full, err := NewRing(backends)
	if err != nil {
		t.Fatal(err)
	}
	removed := backends[2]
	smaller, err := NewRing(append(append([]string{}, backends[:2]...), backends[3]))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range testKeys(4000) {
		was, now := full.Primary(k), smaller.Primary(k)
		if was == removed {
			moved++
			continue // its keys must move somewhere
		}
		if was != now {
			t.Fatalf("key %q moved %s → %s though its backend survived", k, was, now)
		}
	}
	if moved == 0 {
		t.Error("removed backend owned zero keys; distribution test should have caught this")
	}
}

// TestRingReplicas checks the failover sequence: distinct backends,
// primary first, deterministic, and exhaustive when n covers the ring.
func TestRingReplicas(t *testing.T) {
	backends := testBackends(4)
	r, err := NewRing(backends)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(200) {
		reps := r.Replicas(k, 3)
		if len(reps) != 3 {
			t.Fatalf("replicas(%q, 3) = %v", k, reps)
		}
		if reps[0] != r.Primary(k) {
			t.Fatalf("first replica %s is not the primary %s", reps[0], r.Primary(k))
		}
		seen := map[string]bool{}
		for _, b := range reps {
			if seen[b] {
				t.Fatalf("replica list repeats %s: %v", b, reps)
			}
			seen[b] = true
		}
		all := r.Replicas(k, 0)
		if len(all) != len(backends) {
			t.Fatalf("replicas(%q, 0) = %v, want all %d backends", k, all, len(backends))
		}
	}
}
