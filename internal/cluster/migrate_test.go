package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// trialBackends builds a seeded topology of n distinct backend names,
// unique per trial so every trial hashes a fresh point set.
func trialBackends(trial, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://node-%d-%d:8372", trial, i)
	}
	return out
}

// TestRingMembershipMinimalDisruption is the ring-versioning property
// over 1000 seeded topologies: when a backend joins, the only keys
// whose primary changes are those now owned by the joiner; when one
// leaves, only keys it owned change owner. Everything else stays put —
// the guarantee that makes warm-state migration sufficient (no other
// backend's shard is disturbed by a membership change).
func TestRingMembershipMinimalDisruption(t *testing.T) {
	keys := testKeys(200)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		n := 2 + rng.Intn(7)
		backends := trialBackends(trial, n)
		old, err := NewRing(backends)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 0 {
			joiner := fmt.Sprintf("http://node-%d-join:8372", trial)
			grown, err := NewRing(append(append([]string(nil), backends...), joiner))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				was, now := old.Primary(k), grown.Primary(k)
				if was != now && now != joiner {
					t.Fatalf("trial %d: join of %s moved key %q %s → %s — a join may only move keys to the joiner",
						trial, joiner, k, was, now)
				}
			}
		} else {
			leaver := backends[rng.Intn(n)]
			var rest []string
			for _, b := range backends {
				if b != leaver {
					rest = append(rest, b)
				}
			}
			shrunk, err := NewRing(rest)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				was, now := old.Primary(k), shrunk.Primary(k)
				if was != leaver && was != now {
					t.Fatalf("trial %d: leave of %s moved key %q %s → %s — a leave may only move the leaver's keys",
						trial, leaver, k, was, now)
				}
				if was == leaver && now == leaver {
					t.Fatalf("trial %d: departed backend %s still owns key %q", trial, leaver, k)
				}
			}
		}
	}
}

// TestMovedRangesMatchPrimaries: the arc computation the migration
// driver exports by must agree exactly with per-key routing — a key's
// hash falls in moved[src][dst] if and only if its primary moves from
// src to dst.
func TestMovedRangesMatchPrimaries(t *testing.T) {
	keys := testKeys(400)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		backends := trialBackends(trial, n)
		old, err := NewRing(backends)
		if err != nil {
			t.Fatal(err)
		}
		var newMembers []string
		if trial%2 == 0 {
			newMembers = append(append([]string(nil), backends...),
				fmt.Sprintf("http://node-%d-join:8372", trial))
		} else {
			newMembers = backends[1:]
		}
		next, err := NewRing(newMembers)
		if err != nil {
			t.Fatal(err)
		}
		moved := movedRanges(old, next)
		for _, k := range keys {
			was, now := old.Primary(k), next.Primary(k)
			inMoved := moved[was][now].ContainsKey(k)
			if was != now && !inMoved {
				t.Fatalf("trial %d: key %q moves %s → %s but movedRanges misses it", trial, k, was, now)
			}
			if was == now && inMoved {
				t.Fatalf("trial %d: key %q stays on %s but movedRanges claims it moves", trial, k, was)
			}
			// No other pair may claim the key either.
			for src, dsts := range moved {
				for dst, rs := range dsts {
					if rs.ContainsKey(k) && (src != was || dst != now) {
						t.Fatalf("trial %d: key %q (really %s → %s) claimed by pair %s → %s",
							trial, k, was, now, src, dst)
					}
				}
			}
		}
	}
}
