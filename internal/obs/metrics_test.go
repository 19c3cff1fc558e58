package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestRegistryRendersEverySeriesKind registers one of each kind of
// series, owned and read through, labelled and not, and checks the
// snapshot keys, the family names and HELP lines, and that Remove
// drops exactly the rows carrying its label.
func TestRegistryRendersEverySeriesKind(t *testing.T) {
	r := NewRegistry(nil)
	a, b := Label{Name: "backend", Value: "http://a"}, Label{Name: "backend", Value: "http://b"}
	r.Describe("backend.requests", "Calls issued to the backend.")
	r.Counter("backend.requests", b).Add(2)
	r.Counter("backend.requests", a).Inc()
	r.Histogram("backend.latency", a)
	r.Gauge("pool.busy").Set(3)
	r.CounterFunc("memo.hits", "Memoizer hits.", func() uint64 { return 7 })
	r.GaugeFunc("memo.entries", "Memoizer resident entries.", func() int64 { return 5 })

	snap := r.Snapshot()
	if got := snap.Counters[`backend.requests{backend="http://b"}`]; got != 2 {
		t.Errorf("labelled counter in snapshot = %d, want 2", got)
	}
	if snap.Counters["memo.hits"] != 7 || snap.Gauges["memo.entries"] != 5 || snap.Gauges["pool.busy"] != 3 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.UptimeSeconds != 0 {
		t.Errorf("registry without a clock reports uptime %v", snap.UptimeSeconds)
	}

	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Families("x_")); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP x_backend_requests_total Calls issued to the backend.\n# TYPE x_backend_requests_total counter\n" +
			"x_backend_requests_total{backend=\"http://a\"} 1\nx_backend_requests_total{backend=\"http://b\"} 2\n",
		"# HELP x_pool_busy Gauge pool.busy.\n# TYPE x_pool_busy gauge\nx_pool_busy 3\n",
		"# HELP x_memo_hits_total Memoizer hits.\n",
		"x_memo_entries 5\n",
		"x_backend_latency_seconds_count{backend=\"http://a\"} 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "uptime") {
		t.Errorf("registry without a clock renders an uptime family:\n%s", text)
	}

	r.Remove(a)
	snap = r.Snapshot()
	if _, ok := snap.Counters[`backend.requests{backend="http://a"}`]; ok {
		t.Error("Remove kept a row carrying its label")
	}
	if _, ok := snap.Latencies[`backend.latency{backend="http://a"}`]; ok {
		t.Error("Remove kept a histogram carrying its label")
	}
	if snap.Counters[`backend.requests{backend="http://b"}`] != 2 {
		t.Error("Remove dropped a row with another label value")
	}
}

// TestSnapshotAddSums: summing snapshots adds counters and gauges key by
// key, keeping keys only one side has.
func TestSnapshotAddSums(t *testing.T) {
	var sum Snapshot
	sum.Add(Snapshot{Counters: map[string]uint64{"memo.hits": 2}, Gauges: map[string]int64{"memo.entries": 1}})
	sum.Add(Snapshot{Counters: map[string]uint64{"memo.hits": 3, "persist.hits": 1}, Gauges: map[string]int64{"memo.entries": 4}})
	if sum.Counters["memo.hits"] != 5 || sum.Counters["persist.hits"] != 1 || sum.Gauges["memo.entries"] != 5 {
		t.Errorf("sum = %+v", sum)
	}
}

// TestRegistryKindConflictPanics: a name keeps the kind it was first
// registered with; asking for it as another kind is a programming error.
func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("jobs")
	defer func() {
		if recover() == nil {
			t.Error("Gauge on a counter's name did not panic")
		}
	}()
	r.Gauge("jobs")
}
