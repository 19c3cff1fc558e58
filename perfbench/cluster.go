package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"primecache/internal/cache"
	"primecache/internal/client"
	"primecache/internal/cluster"
	"primecache/internal/obs"
	"primecache/internal/server"
)

// sweep is cluster-sweep: a 3-backend in-process cluster whose
// backends memoized every job during setup, so each operation — one
// fixed-size sweep through the coordinator — measures what the
// coordinator adds: routing, scatter, loopback fan-out, ordered merge.
type sweep struct {
	lc       *cluster.LocalCluster
	hc       *http.Client
	cl       *client.Client
	backends []*client.Client
	tracer   *obs.Tracer // client spans
	coord    *obs.Tracer
	nodes    *obs.Tracer // shared by the three backends

	jobs    []server.SweepJob // the job table, class-major
	answers []server.SweepResult
	want    map[int]cache.Stats

	mu     sync.Mutex
	served shares
}

func setupSweep(cfg config, traced bool) (instance, error) {
	s := &sweep{want: cfg.want}
	var nopts server.Options
	var copts cluster.Options
	if traced {
		s.tracer, s.coord, s.nodes = newTracer("bench"), newTracer("coordinator"), newTracer("backends")
		copts.Tracer, nopts.Tracer = s.coord, s.nodes
	}
	lc, err := cluster.StartLocal(3, nopts, copts)
	if err != nil {
		return nil, err
	}
	s.lc = lc
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	s.cl = newClient(lc.URL(), s.hc)
	for _, b := range lc.Backends {
		s.backends = append(s.backends, newClient(b.HTTP.URL, b.HTTP.Client()))
	}
	base, perm := seedBase(cfg.seed), seedPerm(cfg.seed, clusterInstances)
	for inst := 0; inst < clusterInstances; inst++ {
		for class := range serviceMenu {
			s.jobs = append(s.jobs, serviceJob(class, base+uint64(perm[inst])))
		}
	}
	// Memoize the whole table: each job lands on its ring primary.
	s.answers, err = s.cl.Sweep(context.Background(), server.SweepRequest{Jobs: s.jobs})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("memoizing the job table: %w", err)
	}
	if len(s.answers) != len(s.jobs) {
		s.close()
		return nil, fmt.Errorf("memoizing the job table: %d answers for %d jobs", len(s.answers), len(s.jobs))
	}
	if err := warmConnections(s.cl); err != nil {
		s.close()
		return nil, err
	}
	// One untimed operation per client opens the coordinator's
	// connections to every backend.
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) { errs <- s.sweepWindow(context.Background(), nil, i) }(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	return s, nil
}

func (s *sweep) do(ctx context.Context, seq int) error {
	return s.sweepWindow(ctx, s.tracer, seq)
}

// sweepWindow sends the sweep of operation seq and checks every answer
// against setup's: memoized, error-free, same payload.
func (s *sweep) sweepWindow(ctx context.Context, tr *obs.Tracer, seq int) error {
	idx := clusterWindow(seq)
	req := server.SweepRequest{Jobs: make([]server.SweepJob, len(idx))}
	for i, j := range idx {
		req.Jobs[i] = s.jobs[j]
	}
	if tr != nil {
		var span *obs.Span
		ctx, span = tr.StartSpan(ctx, "client.sweep")
		defer span.End()
	}
	res, err := s.cl.Sweep(ctx, req)
	if err != nil {
		return err
	}
	if len(res) != len(idx) {
		return fmt.Errorf("sweep %d: %d answers for %d jobs", seq, len(res), len(idx))
	}
	var sh shares
	for i, j := range idx {
		if res[i].Error != "" || !res[i].Memoized || !sameResult(res[i], s.answers[j]) {
			return fmt.Errorf("sweep %d job %d: error=%q memoized=%v payload equal=%v",
				seq, j, res[i].Error, res[i].Memoized, sameResult(res[i], s.answers[j]))
		}
		sh.count(res[i])
	}
	s.mu.Lock()
	s.served.simulate += sh.simulate
	s.served.analytic += sh.analytic
	s.mu.Unlock()
	return nil
}

func (s *sweep) shares() shares {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

func (s *sweep) simRefs(int) uint64 { return 0 }

// verify oracle-checks the memoized table and checks that every timed
// job was a memo hit and the coordinator neither rerouted nor hedged.
func (s *sweep) verify(d tierDelta) verdict {
	var v verdict
	if len(checkTable(s.jobs, s.answers, s.want, &v)) > 0 {
		v.bad = d.ops // every sweep carries jobs of every class
	}
	switch {
	case d.memoMisses != 0 || d.poolRuns != 0:
		v.problem("backends missed the memo %d times and ran %d pool jobs", d.memoMisses, d.poolRuns)
	case d.reroutes != 0 || d.hedges != 0:
		v.problem("coordinator rerouted %d and hedged %d requests", d.reroutes, d.hedges)
	}
	return v
}

// counters sums the backends' /v1/stats and adds the coordinator's
// routing counters from its own /v1/stats.
func (s *sweep) counters() (tierCounts, error) {
	var t tierCounts
	for _, b := range s.backends {
		c, err := nodeCounts(b)
		if err != nil {
			return t, err
		}
		t = t.add(c)
	}
	var st cluster.StatsResponse
	if err := getJSON(s.hc, s.lc.URL()+"/v1/stats", &st); err != nil {
		return t, err
	}
	t.hedges, t.reroutes = st.Hedges, st.Reroutes
	return t, nil
}

func (s *sweep) tracers() []*obs.Tracer { return nonNil(s.tracer, s.coord, s.nodes) }

func (s *sweep) close() error {
	s.hc.CloseIdleConnections()
	s.lc.Close()
	return nil
}

// getJSON decodes a GET response; the coordinator's /v1/stats has its
// own shape, which the typed client does not model.
func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
