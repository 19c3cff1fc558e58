package cluster

import (
	"bytes"
	"net/http"

	"primecache/internal/obs"
	"primecache/internal/server"
)

// registerMetrics puts the coordinator's counters and gauges into its
// registry, with the HELP text /metrics shows, and describes the
// per-backend families that track registers for each member.
func (c *Coordinator) registerMetrics() {
	m := c.metrics
	m.CounterFunc("coordinator.requests", "Requests accepted by the coordinator.", c.requests.Value)
	m.CounterFunc("coordinator.shed", "Requests shed by the coordinator's admission valve.", c.shed.Value)
	m.CounterFunc("coordinator.hedges", "Hedged backend calls launched.", c.hedges.Value)
	m.CounterFunc("coordinator.reroutes", "Jobs rerouted to another replica after a failure.", c.reroutes.Value)
	m.CounterFunc("coordinator.joins", "Completed backend joins.", c.joins.Value)
	m.CounterFunc("coordinator.leaves", "Completed backend leaves.", c.leaves.Value)
	m.CounterFunc("coordinator.migrated_keys", "Warm-state records moved by membership changes.", c.migratedKeys.Value)
	m.CounterFunc("coordinator.migrated_bytes", "Warm-state value bytes moved by membership changes.", c.migratedBytes.Value)
	m.CounterFunc("coordinator.migration_errors", "Failed or skipped migration transfers.", c.migrationErrors.Value)
	m.GaugeFunc("coordinator.healthy_backends", "Backends currently passing readiness probes.",
		func() int64 { return int64(c.health.healthyCount()) })
	m.GaugeFunc("coordinator.ring_version", "Atomic ring swaps since the coordinator booted.",
		func() int64 { return int64(c.RingVersion()) })
	m.Describe("backend.requests", "Calls issued to the backend.")
	m.Describe("backend.failures", "Failed calls to the backend.")
	m.Describe("backend.inflight", "Calls in flight to the backend.")
	m.Describe("backend.latency", "Observed call latency per backend in seconds.")
}

// backendLabel distinguishes one backend's rows. Base URLs contain
// '://', so the rows exercise the label-escaping path on every scrape.
func backendLabel(url string) obs.Label { return obs.Label{Name: "backend", Value: url} }

// track registers b's rows in the registry and returns b.
func (c *Coordinator) track(b *backendState) *backendState {
	l := backendLabel(b.url)
	b.requests = c.metrics.Counter("backend.requests", l)
	b.failures = c.metrics.Counter("backend.failures", l)
	b.inflight = c.metrics.Gauge("backend.inflight", l)
	b.latency = c.metrics.Histogram("backend.latency", l)
	return b
}

// handleMetrics serves the coordinator's registry in the Prometheus
// text exposition format.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, c.metrics.Families("vcached_")); err != nil {
		writeErr(w, server.Errf(server.CodeInternal, "rendering metrics: %v", err))
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(buf.Bytes())
}
