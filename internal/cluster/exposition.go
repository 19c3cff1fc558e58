package cluster

import (
	"bytes"
	"net/http"

	"primecache/internal/obs"
	"primecache/internal/server"
)

// PromFamilies renders the coordinator's own counters plus one sample
// per backend (labeled backend=<url>) for the routing-layer families.
// The coordinator has no Metrics registry — its counters are raw fields
// — so the families are assembled by hand here.
func (c *Coordinator) PromFamilies() []obs.Family {
	counter := func(name, help string, v uint64) obs.Family {
		return obs.Family{Name: name, Help: help, Kind: obs.KindCounter,
			Samples: []obs.Sample{{Value: float64(v)}}}
	}
	fams := []obs.Family{
		counter("vcached_coordinator_requests_total", "Requests accepted by the coordinator.", c.requests.Value()),
		counter("vcached_coordinator_shed_total", "Requests shed by the coordinator's admission valve.", c.shed.Value()),
		counter("vcached_coordinator_hedges_total", "Hedged backend calls launched.", c.hedges.Value()),
		counter("vcached_coordinator_reroutes_total", "Jobs rerouted to another replica after a failure.", c.reroutes.Value()),
		counter("vcached_coordinator_joins_total", "Completed backend joins.", c.joins.Value()),
		counter("vcached_coordinator_leaves_total", "Completed backend leaves.", c.leaves.Value()),
		counter("vcached_coordinator_migrated_keys_total", "Warm-state records moved by membership changes.", c.migratedKeys.Value()),
		counter("vcached_coordinator_migrated_bytes_total", "Warm-state value bytes moved by membership changes.", c.migratedBytes.Value()),
		counter("vcached_coordinator_migration_errors_total", "Failed or skipped migration transfers.", c.migrationErrors.Value()),
		{
			Name: "vcached_coordinator_healthy_backends", Help: "Backends currently passing readiness probes.",
			Kind:    obs.KindGauge,
			Samples: []obs.Sample{{Value: float64(c.health.healthyCount())}},
		},
		{
			Name: "vcached_coordinator_ring_version", Help: "Atomic ring swaps since the coordinator booted.",
			Kind:    obs.KindGauge,
			Samples: []obs.Sample{{Value: float64(c.RingVersion())}},
		},
	}

	// Per-backend families: one sample per backend, distinguished by the
	// backend label. Base URLs contain '://', so these exercise the label
	// escaping path on every scrape.
	reqs := obs.Family{Name: "vcached_backend_requests_total",
		Help: "Calls issued to the backend.", Kind: obs.KindCounter}
	fails := obs.Family{Name: "vcached_backend_failures_total",
		Help: "Failed calls to the backend.", Kind: obs.KindCounter}
	inflight := obs.Family{Name: "vcached_backend_inflight",
		Help: "Calls in flight to the backend.", Kind: obs.KindGauge}
	latency := obs.Family{Name: "vcached_backend_latency_seconds",
		Help: "Observed call latency per backend in seconds.", Kind: obs.KindHistogram}
	for _, u := range c.currentRing().Backends() {
		b := c.backendFor(u)
		if b == nil {
			continue // removed between the ring read and here
		}
		label := []obs.Label{{Name: "backend", Value: u}}
		reqs.Samples = append(reqs.Samples, obs.Sample{Labels: label, Value: float64(b.requests.Value())})
		fails.Samples = append(fails.Samples, obs.Sample{Labels: label, Value: float64(b.failures.Value())})
		inflight.Samples = append(inflight.Samples, obs.Sample{Labels: label, Value: float64(b.inflight.Value())})
		latency.Samples = append(latency.Samples, obs.Sample{Labels: label, Hist: b.latency.Snapshot().PromHist()})
	}
	return append(fams, reqs, fails, inflight, latency)
}

// handleMetrics serves the coordinator's families in the Prometheus
// text exposition format.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, c.PromFamilies()); err != nil {
		writeErr(w, server.Errf(server.CodeInternal, "rendering metrics: %v", err))
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(buf.Bytes())
}

// handleTraces serves the finished-trace ring; a structured not_found
// envelope when the coordinator was built without a tracer.
func (c *Coordinator) handleTraces(w http.ResponseWriter, r *http.Request) {
	if c.tracer == nil {
		writeErr(w, server.Errf(server.CodeNotFound, "tracing is not enabled on this coordinator"))
		return
	}
	c.tracer.TracesHandler().ServeHTTP(w, r)
}
