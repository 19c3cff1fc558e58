package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"primecache/internal/sim"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (worker-pool occupancy,
// in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Inc increments the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets are the latency histogram upper bounds in microseconds,
// log-spaced from 100µs to ~10s plus an overflow bucket.
var histBuckets = [numHistBuckets]int64{
	100, 316, 1_000, 3_160, 10_000, 31_600,
	100_000, 316_000, 1_000_000, 3_160_000, 10_000_000,
}

const numHistBuckets = 11

// Histogram accumulates request latencies into fixed log-spaced buckets.
// All methods are safe for concurrent use.
type Histogram struct {
	buckets [numHistBuckets + 1]atomic.Uint64
	count   atomic.Uint64
	sumUs   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	h.count.Add(1)
	h.sumUs.Add(us)
	i := sort.Search(len(histBuckets), func(i int) bool { return us <= histBuckets[i] })
	h.buckets[i].Add(1)
}

// HistogramSnapshot is the JSON form of a Histogram.
type HistogramSnapshot struct {
	// Count is the number of observations; MeanUs their mean in
	// microseconds and SumUs their total.
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"meanUs"`
	SumUs  int64   `json:"sumUs"`
	// Buckets maps each upper bound (µs; the last is an overflow
	// bucket reported as upperUs = -1) to its observation count.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one histogram bin.
type HistogramBucket struct {
	UpperUs int64  `json:"upperUs"`
	Count   uint64 `json:"count"`
}

// QuantileUs returns an upper bound (in microseconds) on the q-quantile
// of the observed latencies: the upper edge of the first bucket whose
// cumulative count reaches q·total. The log-spaced buckets make this a
// within-3.16× estimate — plenty for pricing hedge delays and retry
// hints. Observations in the overflow bucket report the top edge times
// its spacing factor; an empty histogram reports 0.
func (s HistogramSnapshot) QuantileUs(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// The q-quantile is the ceil(q·count)-th observation: truncating
	// here used to under-rank (9 fast + 10 slow observations at q=0.5
	// needs the 10th — truncation asked for the 9th and reported the
	// fast bucket even though the median observation is slow).
	need := uint64(math.Ceil(q * float64(s.Count)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= need {
			if b.UpperUs < 0 {
				// Overflow bucket: everything above the last finite edge.
				return histBuckets[len(histBuckets)-1] * 316 / 100
			}
			return b.UpperUs
		}
	}
	return histBuckets[len(histBuckets)-1]
}

// Cumulative re-derives the full Prometheus-style bucket ladder from a
// sparse snapshot: every finite upper bound in microseconds (ascending)
// plus a final implicit +Inf entry, each with the cumulative count of
// observations at or below it. Zero buckets the sparse snapshot omitted
// reappear here carrying the running total, so the ladder is always
// complete and non-decreasing — the exposition layer and its property
// tests both lean on that.
func (s HistogramSnapshot) Cumulative() (uppersUs []int64, cum []uint64) {
	uppersUs = make([]int64, len(histBuckets))
	copy(uppersUs, histBuckets[:])
	cum = make([]uint64, len(histBuckets)+1)
	sparse := make(map[int64]uint64, len(s.Buckets))
	for _, b := range s.Buckets {
		sparse[b.UpperUs] = b.Count
	}
	var running uint64
	for i, upper := range uppersUs {
		running += sparse[upper]
		cum[i] = running
	}
	cum[len(histBuckets)] = running + sparse[-1] // overflow joins +Inf
	return uppersUs, cum
}

// Snapshot returns a consistent-enough copy for reporting (buckets are
// read individually; concurrent observations may straddle the read).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumUs: h.sumUs.Load()}
	if s.Count > 0 {
		s.MeanUs = float64(s.SumUs) / float64(s.Count)
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		upper := int64(-1)
		if i < len(histBuckets) {
			upper = histBuckets[i]
		}
		s.Buckets = append(s.Buckets, HistogramBucket{UpperUs: upper, Count: n})
	}
	return s
}

// Registry is a process's one metric registry: the counters, gauges
// and latency histograms it owns, plus read-through counters and gauges
// whose values other components keep (CounterFunc, GaugeFunc). A series
// may carry labels. /v1/stats reports its Snapshot and /metrics renders
// its Families, so the two cannot disagree. Counter, Gauge and
// Histogram create a metric on first use; hot paths resolve their
// handles once and afterwards touch only the metric's atomics.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series // by series key: name plus rendered labels
	help   map[string]string  // HELP text by metric name
	clock  sim.Clock          // nil: no uptime
	start  time.Time
}

// series is one registered time series: count reads a counter, level a
// gauge, and owned is the *Counter or *Gauge handed out for it (nil
// when the value is read through).
type series struct {
	key, name string
	labels    []Label
	kind      Kind
	count     func() uint64
	level     func() int64
	hist      *Histogram
	owned     any
}

// NewRegistry returns an empty registry. With a non-nil clock it also
// reports its uptime on that clock (virtual in simulation tests), as
// Snapshot.UptimeSeconds and the uptime_seconds family.
func NewRegistry(clk sim.Clock) *Registry {
	r := &Registry{series: map[string]*series{}, help: map[string]string{}, clock: clk}
	if clk != nil {
		r.start = clk.Now()
	}
	return r
}

// get returns the series under name and labels, creating it with init
// on first use. A name keeps the kind it was first registered with.
func (r *Registry) get(name string, kind Kind, labels []Label, init func(*series)) *series {
	key := name + labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[key]
	if !ok {
		s = &series{key: key, name: name, labels: append([]Label(nil), labels...), kind: kind}
		init(s)
		r.series[key] = s
	}
	if s.kind != kind {
		panic("obs: " + key + " is a " + s.kind.String() + ", not a " + kind.String())
	}
	return s
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.get(name, KindCounter, labels, func(s *series) {
		c := &Counter{}
		s.owned, s.count = c, c.Value
	}).owned.(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.get(name, KindGauge, labels, func(s *series) {
		g := &Gauge{}
		s.owned, s.level = g, g.Value
	}).owned.(*Gauge)
}

// Histogram returns the named latency histogram, creating it on first
// use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.get(name, KindHistogram, labels, func(s *series) { s.hist = &Histogram{} }).hist
}

// CounterFunc registers, with its HELP text, a counter whose value read
// returns at every snapshot: a count another component keeps.
func (r *Registry) CounterFunc(name, help string, read func() uint64) {
	r.Describe(name, help)
	r.get(name, KindCounter, nil, func(s *series) { s.count = read })
}

// GaugeFunc registers, with its HELP text, a gauge whose value read
// returns at every snapshot: a level another component keeps.
func (r *Registry) GaugeFunc(name, help string, read func() int64) {
	r.Describe(name, help)
	r.get(name, KindGauge, nil, func(s *series) { s.level = read })
}

// Describe sets the HELP text /metrics shows for name, in place of the
// generic line naming the metric.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// Remove drops every series that carries label l, such as a backend's
// rows when it leaves the cluster.
func (r *Registry) Remove(l Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for key, s := range r.series {
		for _, sl := range s.labels {
			if sl == l {
				delete(r.series, key)
			}
		}
	}
}

// sorted lists the series by key and copies the HELP table, under the
// lock; values are read after it is released, because read-through
// funcs take their owners' locks.
func (r *Registry) sorted() ([]*series, map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	help := make(map[string]string, len(r.help))
	for name, h := range r.help {
		help[name] = h
	}
	return all, help
}

// Snapshot is the JSON form of a registry, keyed by series key: the
// metric name, plus its labels in exposition syntax when it has any.
type Snapshot struct {
	UptimeSeconds float64                      `json:"uptimeSeconds"`
	Counters      map[string]uint64            `json:"counters"`
	Gauges        map[string]int64             `json:"gauges"`
	Latencies     map[string]HistogramSnapshot `json:"latencies"`
}

// Snapshot reads every registered series.
func (r *Registry) Snapshot() Snapshot {
	all, _ := r.sorted()
	s := Snapshot{
		Counters:  map[string]uint64{},
		Gauges:    map[string]int64{},
		Latencies: map[string]HistogramSnapshot{},
	}
	if r.clock != nil {
		s.UptimeSeconds = r.clock.Since(r.start).Seconds()
	}
	for _, se := range all {
		switch se.kind {
		case KindCounter:
			s.Counters[se.key] = se.count()
		case KindGauge:
			s.Gauges[se.key] = se.level()
		case KindHistogram:
			s.Latencies[se.key] = se.hist.Snapshot()
		}
	}
	return s
}

// Add sums o's counters and gauges into s: a cluster's view of its
// backends is the sum of their snapshots. Latencies and uptime belong
// to one process and are not summed.
func (s *Snapshot) Add(o Snapshot) {
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]int64{}
	}
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	for k, v := range o.Gauges {
		s.Gauges[k] += v
	}
}

// Families renders the registry as Prometheus metric families, every
// name prefixed and sanitized by MetricName ('.' separators become
// '_'): a counter becomes <prefix><name>_total, a gauge <prefix><name>,
// and a histogram <prefix><name>_seconds with the full cumulative bucket
// ladder Cumulative re-derives, bounds scaled to seconds. A family's HELP is its Describe text or a
// generic line naming the metric; a labelled family's samples are
// sorted by label. A registry with a clock adds <prefix>uptime_seconds.
func (r *Registry) Families(prefix string) []Family {
	all, help := r.sorted()
	var fams []Family
	index := map[string]int{}
	for _, se := range all {
		i, ok := index[se.name]
		if !ok {
			i = len(fams)
			index[se.name] = i
			fams = append(fams, newFamily(prefix, se.name, se.kind, help[se.name]))
		}
		sample := Sample{Labels: se.labels}
		switch se.kind {
		case KindCounter:
			sample.Value = float64(se.count())
		case KindGauge:
			sample.Value = float64(se.level())
		case KindHistogram:
			hs := se.hist.Snapshot()
			uppersUs, cum := hs.Cumulative()
			sample.Hist = &HistValue{Edges: make([]float64, len(uppersUs)), CumCounts: cum, Sum: float64(hs.SumUs) / 1e6}
			for i, us := range uppersUs {
				sample.Hist.Edges[i] = float64(us) / 1e6
			}
		}
		fams[i].Samples = append(fams[i].Samples, sample)
	}
	if r.clock != nil {
		up := newFamily(prefix, "uptime_seconds", KindGauge, "Seconds since the metrics registry was created.")
		up.Samples = []Sample{{Value: r.clock.Since(r.start).Seconds()}}
		fams = append(fams, up)
	}
	return fams
}

// newFamily returns the empty family of the named metric.
func newFamily(prefix, name string, kind Kind, help string) Family {
	f := Family{Name: prefix + MetricName(name), Help: help, Kind: kind}
	generic := "Gauge " + name + "."
	switch kind {
	case KindCounter:
		f.Name += "_total"
		generic = "Monotonic counter " + name + "."
	case KindHistogram:
		f.Name += "_seconds"
		generic = "Latency histogram " + name + " in seconds."
	}
	if help == "" {
		f.Help = generic
	}
	return f
}
