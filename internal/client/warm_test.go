package client_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/client"
	"primecache/internal/persist"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// warmBenchJob is the job both sides of the speedup test serve: a
// 4-way set-associative organisation (never eligible for the analytic
// closed form, so the cold side must simulate all 128Ki references) at
// a size where compute dwarfs the HTTP round trip.
func warmBenchJob() server.SimulateRequest {
	return server.SimulateRequest{
		Cache:   cache.Spec{Kind: "assoc", Lines: 4096, Ways: 4},
		Pattern: trace.Pattern{Name: "strided", Stride: 17, N: 1 << 16, Stream: 1},
		Passes:  2,
	}
}

// measureSimulate times repeated requests for job through c and fails
// the test unless every answer's Memoized flag equals memoized.
func measureSimulate(t *testing.T, c *client.Client, job server.SimulateRequest, memoized bool) float64 {
	t.Helper()
	var opErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N && opErr == nil; i++ {
			r, err := c.Simulate(context.Background(), job)
			if err != nil {
				opErr = err
			} else if r.Memoized != memoized {
				opErr = fmt.Errorf("answer memoized = %v, want %v", r.Memoized, memoized)
			}
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	return float64(res.T.Nanoseconds()) / float64(res.N)
}

// TestWarmRestartSpeedup pins the acceptance bound from the persistence
// design: answering a previously-persisted job after a restart must be
// at least 10× faster than recomputing it. Both sides run the identical
// request through the identical HTTP stack; the only difference is
// whether the answer comes from disk or from 128Ki simulated
// references.
func TestWarmRestartSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	job := warmBenchJob()

	// Cold control: memo and persist both absent, so every op
	// recomputes the job from scratch through the pool.
	cold := server.New(server.Options{MemoEntries: -1})
	defer cold.Close()
	tsCold := httptest.NewServer(cold.Handler())
	defer tsCold.Close()
	coldNs := measureSimulate(t, client.New(tsCold.URL, client.WithRetries(0), client.WithHTTPClient(tsCold.Client())), job, false)

	// Warm side: compute the job once on a persist-backed instance,
	// restart onto the same directory with the memoizer disabled, and
	// serve every op from the warm-start store.
	dir := t.TempDir()
	store, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first := server.New(server.Options{Persist: store})
	tsFirst := httptest.NewServer(first.Handler())
	_, err = client.New(tsFirst.URL, client.WithRetries(0), client.WithHTTPClient(tsFirst.Client())).Simulate(context.Background(), job)
	tsFirst.Close()
	if err != nil {
		first.Close()
		t.Fatal(err)
	}
	if err := first.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	store2, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm := server.New(server.Options{Persist: store2, MemoEntries: -1})
	defer warm.Close()
	tsWarm := httptest.NewServer(warm.Handler())
	defer tsWarm.Close()
	warmNs := measureSimulate(t, client.New(tsWarm.URL, client.WithRetries(0), client.WithHTTPClient(tsWarm.Client())), job, true)

	ratio := coldNs / warmNs
	t.Logf("cold %.0f ns/op, warm %.0f ns/op, speedup %.1f×", coldNs, warmNs, ratio)
	if ratio < 10 {
		t.Errorf("warm restart is only %.1f× faster than cold compute, want ≥ 10×", ratio)
	}
}
