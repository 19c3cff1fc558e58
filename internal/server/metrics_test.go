package server

// These tests pin the obs registry's counter, gauge and histogram
// semantics that the server reports and prices Retry-After hints from.

import (
	"math"
	"sync"
	"testing"
	"time"

	"primecache/internal/obs"
	"primecache/internal/sim"
)

// TestHistogramQuantileEdges table-drives the quantile estimator
// through its boundary behaviour: empty histograms, a single sample,
// out-of-range q, and overflow-bucket observations. The hedge and
// Retry-After pricing both consume these values, so "0 on empty" and
// "finite on overflow" are load-bearing.
func TestHistogramQuantileEdges(t *testing.T) {
	overflow := topBucketUs() * 316 / 100
	cases := []struct {
		name    string
		observe []time.Duration
		q       float64
		want    int64
	}{
		{name: "empty p95", observe: nil, q: 0.95, want: 0},
		{name: "empty p0", observe: nil, q: 0, want: 0},
		{name: "single sample p95", observe: []time.Duration{50 * time.Microsecond}, q: 0.95, want: 100},
		{name: "single sample p0 still counts it", observe: []time.Duration{50 * time.Microsecond}, q: 0, want: 100},
		{name: "q above 1 clamps", observe: []time.Duration{50 * time.Microsecond}, q: 2.5, want: 100},
		{name: "q below 0 clamps", observe: []time.Duration{50 * time.Microsecond}, q: -1, want: 100},
		{
			name:    "p50 splits buckets",
			observe: []time.Duration{50 * time.Microsecond, 50 * time.Microsecond, 50 * time.Microsecond, 5 * time.Millisecond},
			q:       0.5,
			want:    100,
		},
		{
			name:    "p95 lands in the slow tail",
			observe: append(manyFast(10), 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond),
			q:       0.95,
			want:    10_000,
		},
		{name: "overflow bucket reports finite bound", observe: []time.Duration{20 * time.Second}, q: 0.95, want: overflow},
		{name: "zero duration lands in first bucket", observe: []time.Duration{0}, q: 0.5, want: 100},
		{name: "negative duration clamps into first bucket", observe: []time.Duration{-time.Second}, q: 0.5, want: 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h obs.Histogram
			for _, d := range tc.observe {
				h.Observe(d)
			}
			if got := h.Snapshot().QuantileUs(tc.q); got != tc.want {
				t.Errorf("QuantileUs(%v) = %d, want %d", tc.q, got, tc.want)
			}
		})
	}
}

func manyFast(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = 50 * time.Microsecond
	}
	return out
}

// TestHistogramSnapshotStats checks the count/mean bookkeeping,
// including the empty case (mean must be 0, not NaN — it is serialized
// to JSON, which rejects NaN).
func TestHistogramSnapshotStats(t *testing.T) {
	var h obs.Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.MeanUs != 0 || len(s.Buckets) != 0 {
		t.Errorf("empty snapshot = %+v, want zero values", s)
	}
	if math.IsNaN(s.MeanUs) {
		t.Error("empty histogram mean is NaN; /v1/stats would fail to encode")
	}

	h.Observe(100 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	s = h.Snapshot()
	if s.Count != 2 {
		t.Errorf("count = %d, want 2", s.Count)
	}
	if s.MeanUs != 200 {
		t.Errorf("mean = %v µs, want 200", s.MeanUs)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Errorf("bucket counts sum to %d, want %d — observations dropped", total, s.Count)
	}
}

// TestCounterOverflow pins wraparound semantics: the counter is a
// uint64 that wraps modulo 2^64 rather than saturating or panicking,
// so rate computations over a wrap see one absurd sample instead of a
// stuck counter.
func TestCounterOverflow(t *testing.T) {
	var c obs.Counter
	c.Add(math.MaxUint64)
	if got := c.Value(); got != math.MaxUint64 {
		t.Fatalf("Value() = %d, want MaxUint64", got)
	}
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Errorf("Value() after overflow = %d, want wrap to 0", got)
	}
	c.Add(5)
	if got := c.Value(); got != 5 {
		t.Errorf("Value() = %d, want 5", got)
	}
}

// TestGaugeBelowZero: a gauge may legitimately go negative during
// teardown races; it must count back up consistently.
func TestGaugeBelowZero(t *testing.T) {
	var g obs.Gauge
	g.Dec()
	if got := g.Value(); got != -1 {
		t.Errorf("Value() = %d, want -1", got)
	}
	g.Inc()
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Errorf("Value() = %d, want 42", got)
	}
}

// TestMetricsConcurrentObserveAndSnapshot hammers one registry with
// concurrent writers on every metric type while readers snapshot and
// render it.
// Run under -race this is the data-race proof for the lock-free metric
// paths; the invariant checked is conservation — nothing observed is
// ever lost once the writers are done.
func TestMetricsConcurrentObserveAndSnapshot(t *testing.T) {
	m := obs.NewRegistry(nil)
	const writers = 8
	const perWriter = 1000

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	// Readers: snapshot continuously while writes are in flight; the
	// race detector proves snapshots never tear a metric's memory.
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.Snapshot()
					_ = m.Families("vcached_")
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				m.Counter("hits").Inc()
				m.Gauge("inflight").Inc()
				m.Histogram("latency").Observe(time.Duration(i) * time.Microsecond)
				m.Gauge("inflight").Dec()
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	s := m.Snapshot()
	if got := s.Counters["hits"]; got != writers*perWriter {
		t.Errorf("hits = %d, want %d", got, writers*perWriter)
	}
	if got := s.Gauges["inflight"]; got != 0 {
		t.Errorf("inflight = %d at rest, want 0", got)
	}
	hs := s.Latencies["latency"]
	if hs.Count != writers*perWriter {
		t.Errorf("latency count = %d, want %d", hs.Count, writers*perWriter)
	}
	var total uint64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != hs.Count {
		t.Errorf("bucket sum %d != count %d — an observation was lost", total, hs.Count)
	}
}

// TestMetricsUptimeOnVirtualClock: uptime is measured on the injected
// clock, so a simulation that advances virtual time sees it reflected
// without any wall time passing.
func TestMetricsUptimeOnVirtualClock(t *testing.T) {
	vclk := sim.NewVirtual()
	m := obs.NewRegistry(vclk)
	if up := m.Snapshot().UptimeSeconds; up != 0 {
		t.Errorf("uptime = %v before any advance, want 0", up)
	}
	vclk.Advance(90 * time.Second)
	if up := m.Snapshot().UptimeSeconds; up != 90 {
		t.Errorf("uptime = %v after advancing 90s, want 90", up)
	}
}

// topBucketUs is the histogram ladder's top finite edge.
func topBucketUs() int64 {
	uppers, _ := obs.HistogramSnapshot{}.Cumulative()
	return uppers[len(uppers)-1]
}
