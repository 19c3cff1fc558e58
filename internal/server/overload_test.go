package server_test

// Overload stress suite: deterministic fault injection drives the
// admission valve and the shed path through the typed client, and a
// saturated server is shown to answer exactly as an idle one does, on
// the wire. Each test ends in a graceful Shutdown so the suite doubles
// as a drain-safety check under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"primecache/internal/cache"
	"primecache/internal/client"
	"primecache/internal/persist"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// distinctJob returns a small simulate request memoization cannot
// collapse across i.
func distinctJob(i int) server.SimulateRequest {
	return server.SimulateRequest{
		Pattern: trace.Pattern{Name: "strided", Stride: int64(2*i + 1), N: 4096},
		Passes:  2,
	}
}

// TestShedRequestsNeverReachPool: with the admit stage forced to shed,
// every request bounces with a 429 before any work is scheduled — the
// worker pool must never see a task and the admission queue must end
// empty.
func TestShedRequestsNeverReachPool(t *testing.T) {
	s := server.New(server.Options{Workers: 2, Faults: func(stage string, seq uint64) server.Fault {
		if stage == "admit" {
			return server.Fault{QueueFull: true}
		}
		return server.Fault{}
	}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(0))
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Simulate(context.Background(), distinctJob(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		var ce *client.Error
		if !errors.As(err, &ce) || ce.Code != server.CodeOverloaded {
			t.Fatalf("request %d: err = %v, want overloaded", i, err)
		}
		if ce.RetryAfter <= 0 {
			t.Errorf("request %d: shed without a Retry-After hint", i)
		}
	}

	// Stats must still answer while the server sheds (healthz/stats
	// bypass admission), and must show the pool untouched.
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats during shed: %v", err)
	}
	if stats.Admission.Shed != n {
		t.Errorf("admission.shed = %d, want %d", stats.Admission.Shed, n)
	}
	if got := s.Metrics().Counter("pool.completed").Value(); got != 0 {
		t.Errorf("pool completed %d tasks; shed requests must never reach the pool", got)
	}
	if got := s.Metrics().Gauge("pool.busy").Value(); got != 0 {
		t.Errorf("pool.busy = %d, want 0", got)
	}
	if got := s.Metrics().Gauge("admission.queued").Value(); got != 0 {
		t.Errorf("admission.queued = %d after all requests returned, want 0", got)
	}
}

// TestOverloadBurstShedsAndDrains: a burst of distinct jobs against a
// one-worker, zero-backlog server with slowed compute must split into
// some successes and some organic 429s (no forced shed — the queue
// really fills), and the server must then drain cleanly.
func TestOverloadBurstShedsAndDrains(t *testing.T) {
	s := server.New(server.Options{
		Workers:    1,
		QueueDepth: -1, // capacity == worker count: the narrowest valve
		Faults: func(stage string, seq uint64) server.Fault {
			if stage == "compute" {
				return server.Fault{Latency: 30 * time.Millisecond}
			}
			return server.Fault{}
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(0))
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Simulate(context.Background(), distinctJob(i))
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		default:
			var ce *client.Error
			if !errors.As(err, &ce) || ce.Code != server.CodeOverloaded {
				t.Fatalf("request %d: err = %v, want nil or overloaded", i, err)
			}
			if ce.RetryAfter <= 0 {
				t.Errorf("request %d: 429 without Retry-After", i)
			}
			shed++
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("burst split ok=%d shed=%d; want both non-zero", ok, shed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after burst: %v", err)
	}
	if got := s.Metrics().Gauge("admission.queued").Value(); got != 0 {
		t.Errorf("admission.queued = %d after drain, want 0", got)
	}
}

// TestPressureDoesNotChangeAnswer: a window job — a strided sweep on a
// prime cache below the 2^22-reference cutoff but more than twice the
// closed form's guard replay — is answered in closed form at every
// load. A saturated server (one slot, no backlog: a request's own
// admission slot makes pressure 1.0) and an idle one return the same
// status, ETag and body, and the answer is memoized and persisted like
// any other.
func TestPressureDoesNotChangeAnswer(t *testing.T) {
	store, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	saturated := server.New(server.Options{Workers: 1, QueueDepth: -1, Persist: store})
	defer saturated.Shutdown(context.Background())
	sts := httptest.NewServer(saturated.Handler())
	defer sts.Close()

	idle := server.New(server.Options{Workers: 1})
	defer idle.Shutdown(context.Background())
	its := httptest.NewServer(idle.Handler())
	defer its.Close()

	// Prime C=13 (8191 sets), 2^17 refs × 2 passes = 262144 references:
	// far below the 2^22 cutoff, above the floor of 2× the guard replay
	// (2 passes × 16383 refs).
	req := server.SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Start: 7, Stride: 129, N: 1 << 17, Stream: 1},
		Passes:  2,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func(url string) (status int, etag string, data []byte) {
		t.Helper()
		resp, err := http.Post(url+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if data, err = io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("ETag"), data
	}

	ss, se, sb := post(sts.URL)
	is, ie, ib := post(its.URL)
	if ss != is || se != ie || !bytes.Equal(sb, ib) {
		t.Fatalf("saturated and idle answers differ:\n saturated %d %s %s\n idle      %d %s %s", ss, se, sb, is, ie, ib)
	}
	var got client.SimulateResult
	if err := json.Unmarshal(sb, &got); err != nil {
		t.Fatal(err)
	}
	if ss != http.StatusOK || !got.Analytic || got.Degraded || got.Memoized {
		t.Fatalf("window job: status %d, analytic %v, degraded %v, memoized %v; want 200 analytic, not degraded, computed",
			ss, got.Analytic, got.Degraded, got.Memoized)
	}

	_, re, rb := post(sts.URL)
	if err := json.Unmarshal(rb, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Memoized || re != se {
		t.Errorf("saturated repeat: memoized %v, ETag %s; want a memo hit under ETag %s", got.Memoized, re, se)
	}
	if !store.Has(server.SweepJob{Simulate: &req}.Key()) {
		t.Error("window job left no persist record")
	}
}
