package server

import (
	"bytes"
	"net/http"
	"sort"

	"primecache/internal/obs"
)

// PromFamilies renders the registry as Prometheus metric families:
// every counter becomes vcached_<name>_total, every gauge
// vcached_<name>, and every latency histogram vcached_<name>_seconds
// with its full cumulative bucket ladder re-derived from the sparse
// snapshot (bounds converted from microseconds to seconds). An uptime
// gauge rides along. Names are sanitized into the Prometheus charset
// ('.' separators become '_').
func (m *Metrics) PromFamilies() []obs.Family {
	snap := m.Snapshot()
	fams := make([]obs.Family, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Latencies)+1)
	for _, name := range sortedKeys(snap.Counters) {
		fams = append(fams, obs.Family{
			Name:    "vcached_" + obs.MetricName(name) + "_total",
			Help:    "Monotonic counter " + name + ".",
			Kind:    obs.KindCounter,
			Samples: []obs.Sample{{Value: float64(snap.Counters[name])}},
		})
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fams = append(fams, obs.Family{
			Name:    "vcached_" + obs.MetricName(name),
			Help:    "Gauge " + name + ".",
			Kind:    obs.KindGauge,
			Samples: []obs.Sample{{Value: float64(snap.Gauges[name])}},
		})
	}
	for _, name := range sortedKeys(snap.Latencies) {
		fams = append(fams, obs.Family{
			Name:    "vcached_" + obs.MetricName(name) + "_seconds",
			Help:    "Latency histogram " + name + " in seconds.",
			Kind:    obs.KindHistogram,
			Samples: []obs.Sample{{Hist: snap.Latencies[name].PromHist()}},
		})
	}
	fams = append(fams, obs.Family{
		Name:    "vcached_uptime_seconds",
		Help:    "Seconds since the metrics registry was created.",
		Kind:    obs.KindGauge,
		Samples: []obs.Sample{{Value: snap.UptimeSeconds}},
	})
	return fams
}

// PromHist converts the snapshot into exposition form: the microsecond
// ladder re-derived by Cumulative, bounds scaled to seconds. Both the
// server's registry and the coordinator's per-backend histograms
// render through it.
func (s HistogramSnapshot) PromHist() *obs.HistValue {
	uppersUs, cum := s.Cumulative()
	edges := make([]float64, len(uppersUs))
	for i, us := range uppersUs {
		edges[i] = float64(us) / 1e6
	}
	return &obs.HistValue{Edges: edges, CumCounts: cum, Sum: float64(s.SumUs) / 1e6}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// memoFamilies renders the memoizer's stats, which live outside the
// metric registry.
func memoFamilies(st MemoStats) []obs.Family {
	counter := func(name, help string, v uint64) obs.Family {
		return obs.Family{Name: name, Help: help, Kind: obs.KindCounter,
			Samples: []obs.Sample{{Value: float64(v)}}}
	}
	gauge := func(name, help string, v int) obs.Family {
		return obs.Family{Name: name, Help: help, Kind: obs.KindGauge,
			Samples: []obs.Sample{{Value: float64(v)}}}
	}
	return []obs.Family{
		counter("vcached_memo_hits_total", "Memoizer hits.", st.Hits),
		counter("vcached_memo_misses_total", "Memoizer misses.", st.Misses),
		counter("vcached_memo_evictions_total", "Memoizer LRU evictions.", st.Evictions),
		gauge("vcached_memo_entries", "Memoizer resident entries.", st.Entries),
		gauge("vcached_memo_capacity", "Memoizer capacity (0 when disabled).", st.Capacity),
	}
}

// handleMetrics serves the whole registry (plus memo stats, plus the
// vcached_persist_* families when the disk tier is enabled) in the
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	fams := append(s.metrics.PromFamilies(), memoFamilies(s.memo.Stats())...)
	if s.persist != nil {
		fams = append(fams, persistFamilies(s.persist.Stats())...)
	}
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, fams); err != nil {
		writeError(w, Errf(CodeInternal, "rendering metrics: %v", err))
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(buf.Bytes())
}

// handleTraces serves the finished-trace ring; a structured not_found
// envelope when the server was built without a tracer.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, Errf(CodeNotFound, "tracing is not enabled on this server"))
		return
	}
	s.tracer.TracesHandler().ServeHTTP(w, r)
}
