package main

// Service-layer benchmarks in the style of the repo root's bench_test.go:
// an httptest server driven by concurrent clients, measuring sweep
// throughput when every job is computed (memo-miss) versus served from
// the memoizer (memo-hit). Future PRs track requests/sec here the way
// figure benchmarks track crossover points.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// benchJobs builds a 16-job sweep; vary controls whether job configs are
// unique per call (forcing memo misses) or fixed (memo hits after warmup).
func benchJobs(vary uint64) []server.SweepJob {
	jobs := make([]server.SweepJob, 16)
	for i := range jobs {
		jobs[i] = server.SweepJob{Simulate: &server.SimulateRequest{
			Cache: cache.Spec{Kind: "prime", C: 7},
			Pattern: trace.Pattern{
				Name:   "strided",
				Start:  vary * 1024,
				Stride: int64(1 + i),
				N:      2048,
			},
		}}
	}
	return jobs
}

func postSweep(b *testing.B, url string, jobs []server.SweepJob) {
	b.Helper()
	buf, err := json.Marshal(server.SweepRequest{Jobs: jobs})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != 200 {
		b.Fatalf("sweep status %d", resp.StatusCode)
	}
}

func benchSweep(b *testing.B, hit bool) {
	s := server.New(server.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if hit {
		// Warm the memo so every benchmarked request is a pure hit.
		postSweep(b, ts.URL, benchJobs(0))
	}
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			var v uint64
			if !hit {
				v = seq.Add(1) // unique configs: every job computes
			}
			postSweep(b, ts.URL, benchJobs(v))
		}
	})
	b.StopTimer()
	st := s.Metrics().Snapshot()
	if n := st.Counters["requests.sweep"]; n > 0 {
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "sweeps/sec")
	}
}

// BenchmarkSweepMemoMiss measures sweep throughput when every job is a
// fresh configuration (full simulation in a compute slot).
func BenchmarkSweepMemoMiss(b *testing.B) { benchSweep(b, false) }

// BenchmarkSweepMemoHit measures sweep throughput when every job is
// served from the memoization cache.
func BenchmarkSweepMemoHit(b *testing.B) { benchSweep(b, true) }

// BenchmarkModelRequest measures single /v1/model request latency
// end-to-end (decode, validate, pool round trip, encode), memo disabled
// so the analytic model really evaluates each time.
func BenchmarkModelRequest(b *testing.B) {
	s := server.New(server.Options{MemoEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"banks":64,"tm":%d,"b":4096}`, 1+i%128)
		resp, err := http.Post(ts.URL+"/v1/model", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("model status %d", resp.StatusCode)
		}
	}
}
