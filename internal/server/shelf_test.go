//go:build go1.24

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"weak"

	"primecache/internal/cache"
	"primecache/internal/trace"
)

// TestShelfReuseMatchesFresh: for every organisation, Random-policy
// caches narrow and wide included, a job served on the simulator a
// larger job with the same spec left on the shelf returns the bytes a
// fresh server returns. The collector is off, so the shelf cannot lose
// the simulator between the jobs and the reuse is certain.
func TestShelfReuseMatchesFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	specs := map[string]cache.Spec{
		"prime":       {Kind: "prime", C: 7},
		"direct":      {Kind: "direct", Lines: 128},
		"assoc":       {Kind: "assoc", Lines: 128, Ways: 4},
		"full":        {Kind: "full", Lines: 32},
		"prime-assoc": {Kind: "prime-assoc", C: 5, Ways: 2},
		"skewed":      {Kind: "skewed", Lines: 128},
		"victim":      {Kind: "victim", Lines: 128, VictimLines: 4},
		"random":      {Kind: "assoc", Lines: 128, Ways: 4, Policy: "random"},
		"random-wide": {Kind: "assoc", Lines: 256, Ways: 32, Policy: "random"},
	}
	for _, name := range append(cache.SpecKinds(), "random", "random-wide") {
		spec := specs[name]
		t.Run(name, func(t *testing.T) {
			larger := SimulateRequest{Cache: spec, Passes: 3,
				Pattern: trace.Pattern{Name: "strided", Stride: 7, N: 5000, Stream: 1}}
			// A sweep a little larger than the caches, so that under the
			// Random policy which lines survive decides the hits.
			job := SimulateRequest{Cache: spec, Passes: 8,
				Pattern: trace.Pattern{Name: "strided", Start: 11, Stride: 3, N: 300, Stream: 2}}
			var sh simShelf
			if _, err := runSimulate(context.Background(), larger, &sh); err != nil {
				t.Fatal(err)
			}
			key := spec.String()
			left := sh.sims[key]
			got, err := runSimulate(context.Background(), job, &sh)
			if err != nil {
				t.Fatal(err)
			}
			if sh.sims[key] != left {
				t.Fatal("the job did not reuse the shelved simulator")
			}
			want, err := runSimulate(context.Background(), job, nil)
			if err != nil {
				t.Fatal(err)
			}
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if !bytes.Equal(gb, wb) {
				t.Errorf("reused simulator answered\n %s\nfresh one\n %s", gb, wb)
			}
		})
	}
}

// TestShelfHoldsNothingAlive: an idle shelved simulator is freed by the
// collector, and its entry is dropped after it.
func TestShelfHoldsNothingAlive(t *testing.T) {
	var sh simShelf
	spec := cache.Spec{Kind: "prime", C: 13}
	sim := func() weak.Pointer[cache.Cache] {
		b, _, err := sh.checkout(spec)
		if err != nil {
			t.Fatal(err)
		}
		sh.checkin(b)
		return weak.Make(b.sim.(*cache.Cache))
	}()
	runtime.GC()
	runtime.GC()
	if sim.Value() != nil {
		t.Fatal("the shelf kept an idle simulator alive across two collections")
	}
	// The entry's cleanup runs on its own goroutine after the collection.
	for deadline := time.Now().Add(5 * time.Second); ; {
		sh.mu.Lock()
		n := len(sh.sims)
		sh.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d shelf entries outlived their simulators", n)
		}
		time.Sleep(time.Millisecond)
	}
	if sh.take(spec.String()) != nil {
		t.Fatal("take returned a freed simulator")
	}
}
