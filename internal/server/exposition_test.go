package server

import (
	"flag"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"primecache/internal/cache"
	"primecache/internal/obs"
	"primecache/internal/sim"
	"primecache/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden compares got against testdata/<name>, rewriting it under
// -update (same pattern as internal/report):
//
//	go test ./internal/server -run Golden -update
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create golden files)", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s: output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n(rerun with -update if the change is intended)", name, got, want)
	}
}

// TestMetricsGolden pins the full /metrics exposition byte for byte.
// Everything feeding it is deterministic here: a virtual clock (zero
// latencies and uptime), a fixed worker count, and a single simulate
// request — so any drift in metric names, help text, bucket edges, or
// formatting shows up as a golden diff.
func TestMetricsGolden(t *testing.T) {
	clk := sim.NewVirtual()
	_, ts := newTestServer(t, Options{Workers: 2, Clock: clk})

	req := SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 4096},
		Passes:  2,
	}
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", req); resp.StatusCode != 200 {
		t.Fatalf("simulate status = %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
		t.Fatalf("/metrics content type = %q, want %q", got, obs.PromContentType)
	}
	if err := obs.CheckExposition(body); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text format: %v", err)
	}
	checkGolden(t, "metrics.golden", body)
}

// TestMetricsExpositionUnderLoad runs a mixed workload on the real
// clock and asserts the exposition still parses — latencies land in
// arbitrary buckets, so this catches ladder bugs the frozen golden
// cannot.
func TestMetricsExpositionUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for i := 0; i < 3; i++ {
		req := SimulateRequest{
			Cache:   cache.Spec{Kind: "prime", C: 13},
			Pattern: trace.Pattern{Name: "strided", Stride: int64(512 + i), N: 4096},
			Passes:  2,
		}
		if resp, body := postJSON(t, ts.URL+"/v1/simulate", req); resp.StatusCode != 200 {
			t.Fatalf("simulate status = %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(body); err != nil {
		t.Fatalf("/metrics under load is not valid Prometheus text: %v\n%s", err, body)
	}
}

func TestTracesEndpointWithoutTracer(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/debug/traces without a tracer: status %d, want 404", resp.StatusCode)
	}
}

// TestQuantileMatchesCumulativeLadder is the regression property for
// the exposition ladder and the QuantileUs rank fix: on 1000 seeded
// observation sets (spanning every bucket including overflow), the
// quantile read straight off the re-derived _bucket cumulative counts
// must equal QuantileUs, the ladder must be complete and monotone, and
// — when the quantile lands in a finite bucket — at least ceil(q·n)
// raw observations must actually sit at or below the reported bound
// (the check that catches rank truncation: 9 fast + 10 slow
// observations at q=0.5 must report a slow bucket).
func TestQuantileMatchesCumulativeLadder(t *testing.T) {
	overflowSentinel := histBuckets[len(histBuckets)-1] * 316 / 100
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	for seed := 0; seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		var h Histogram
		n := 1 + rng.Intn(200)
		obsUs := make([]int64, n)
		for i := range obsUs {
			// Log-uniform over ~7 decades so every bucket, including
			// overflow past the 10s top edge, gets regular traffic.
			us := int64(math.Pow(10, 1+rng.Float64()*6.6))
			obsUs[i] = us
			h.Observe(time.Duration(us) * time.Microsecond)
		}
		s := h.Snapshot()
		uppers, cum := s.Cumulative()

		if cum[len(cum)-1] != s.Count {
			t.Fatalf("seed %d: ladder total %d != count %d", seed, cum[len(cum)-1], s.Count)
		}
		for i := 1; i < len(cum); i++ {
			if cum[i] < cum[i-1] {
				t.Fatalf("seed %d: cumulative counts decrease at index %d: %v", seed, i, cum)
			}
		}

		for _, q := range quantiles {
			got := s.QuantileUs(q)
			need := uint64(math.Ceil(q * float64(s.Count)))
			if need == 0 {
				need = 1
			}
			want := int64(-1)
			for i, c := range cum {
				if c >= need {
					if i < len(uppers) {
						want = uppers[i]
					} else {
						want = overflowSentinel
					}
					break
				}
			}
			if got != want {
				t.Fatalf("seed %d q=%v: QuantileUs = %d, ladder says %d (count %d, need %d, cum %v)",
					seed, q, got, want, s.Count, need, cum)
			}
			if got != overflowSentinel {
				var atOrBelow uint64
				for _, us := range obsUs {
					if us <= got {
						atOrBelow++
					}
				}
				if atOrBelow < need {
					t.Fatalf("seed %d q=%v: only %d of %d observations <= reported bound %dµs, need %d",
						seed, q, atOrBelow, s.Count, got, need)
				}
			}
		}
	}
}
