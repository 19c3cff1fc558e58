package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"primecache/internal/cache"
	"primecache/internal/client"
	"primecache/internal/server"
	"primecache/internal/sim"
	"primecache/internal/trace"
)

// sweep64 builds the acceptance batch: 64 distinct jobs across five
// cache organisations, varied strides and sizes, plus a band of model
// evaluations — every memo key unique so results carry no
// timing-dependent memoized flags.
func sweep64() server.SweepRequest {
	specs := []cache.Spec{
		{Kind: "prime", C: 13},
		{Kind: "direct", Lines: 8192},
		{Kind: "assoc", Lines: 8192, Ways: 4},
		{Kind: "skewed", Lines: 8192},
		{Kind: "victim", Lines: 8192},
	}
	var req server.SweepRequest
	for i := 0; i < 56; i++ {
		req.Jobs = append(req.Jobs, server.SweepJob{Simulate: &server.SimulateRequest{
			Cache:   specs[i%len(specs)],
			Pattern: trace.Pattern{Name: "strided", Stride: int64(3 + 2*i), N: 256 + 8*i, Stream: 1},
			Passes:  1 + i%3,
		}})
	}
	for i := 0; i < 8; i++ {
		req.Jobs = append(req.Jobs, server.SweepJob{Model: &server.ModelRequest{B: 512 << uint(i%4), Tm: 16 + 8*i}})
	}
	return req
}

// postSweep sends the batch raw and returns the response body bytes.
func postSweep(t *testing.T, url string, req server.SweepRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, data)
	}
	return data
}

// TestClusterSweepMatchesSingleNode is the headline acceptance check: a
// 64-job sweep through a 3-node cluster must return a byte-identical
// response body — same job stats, same ordering, same wire format — as
// the same sweep against one standalone vcached.
func TestClusterSweepMatchesSingleNode(t *testing.T) {
	single := server.New(server.Options{})
	defer single.Close()
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()

	lc, err := StartLocal(3, server.Options{}, Options{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	req := sweep64()
	want := postSweep(t, sts.URL, req)
	got := postSweep(t, lc.URL(), req)
	if !bytes.Equal(want, got) {
		// Pinpoint the first divergence for the failure message.
		var w, g struct {
			Results []server.SweepResult `json:"results"`
		}
		if err := json.Unmarshal(want, &w); err != nil {
			t.Fatalf("single-node response undecodable: %v", err)
		}
		if err := json.Unmarshal(got, &g); err != nil {
			t.Fatalf("cluster response undecodable: %v\n%s", err, got)
		}
		if len(w.Results) != len(g.Results) {
			t.Fatalf("result counts differ: single %d, cluster %d", len(w.Results), len(g.Results))
		}
		for i := range w.Results {
			wj, _ := json.Marshal(w.Results[i])
			gj, _ := json.Marshal(g.Results[i])
			if !bytes.Equal(wj, gj) {
				t.Fatalf("job %d differs:\nsingle:  %s\ncluster: %s", i, wj, gj)
			}
		}
		t.Fatal("bodies differ only in framing — merge did not preserve single-node byte layout")
	}
	// Ordering is implied by byte equality, but assert it explicitly.
	var out struct {
		Results []server.SweepResult `json:"results"`
	}
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d; merge broke ordering", i, r.Index)
		}
		if r.Error != "" {
			t.Fatalf("job %d failed: %s (%s)", i, r.Error, r.ErrorCode)
		}
	}
	// The batch must actually have scattered: more than one backend saw
	// requests.
	busy := 0
	for _, b := range lc.Backends {
		if lc.Coordinator.backends[b.URL()].requests.Value() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("sweep touched %d backends, want scatter across ≥ 2", busy)
	}
}

// TestClusterFailoverMidSweep kills one backend while a 64-job sweep is
// in flight: every job must still succeed, rerouted to the dead
// backend's ring replica.
func TestClusterFailoverMidSweep(t *testing.T) {
	// The fault hook doubles as a synchronization point: every compute
	// announces itself, then blocks until the kill has landed. Once five
	// computes are in flight, at least three nodes are busy (two workers
	// each), so the victim is provably mid-sub-sweep when its
	// connections are severed — no wall-clock guessing.
	computing := make(chan struct{}, 256)
	release := make(chan struct{})
	node := server.Options{
		Workers: 2,
		Faults: func(stage string, _ uint64) server.Fault {
			if stage == "compute" {
				computing <- struct{}{}
				<-release
			}
			return server.Fault{}
		},
	}
	lc, err := StartLocal(3, node, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	// On any failure path, unblock the workers before lc.Close waits for
	// them (runs before the Close defer).
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()

	req := sweep64()
	done := make(chan []byte, 1)
	go func() {
		body, _ := json.Marshal(req)
		resp, err := http.Post(lc.URL()+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		done <- data
	}()

	for i := 0; i < 5; i++ {
		select {
		case <-computing:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d computes started; sweep never spread across the cluster", i)
		}
	}
	// Sever the victim's in-flight connections first (the sub-sweep on
	// it must fail), then finish the kill in the background: closing the
	// listener waits out handlers that are still blocked on release.
	lc.Backends[1].HTTP.CloseClientConnections()
	killed := make(chan struct{})
	go func() { defer close(killed); lc.Kill(1) }()
	defer func() { <-killed }()
	releaseOnce()

	data := <-done
	if data == nil {
		t.Fatal("sweep transport failed")
	}
	var out struct {
		Results []server.SweepResult `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding sweep response: %v\n%s", err, data)
	}
	if len(out.Results) != len(req.Jobs) {
		t.Fatalf("got %d results for %d jobs", len(out.Results), len(req.Jobs))
	}
	for i, r := range out.Results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		if r.Error != "" {
			t.Fatalf("job %d failed after failover: %s (%s)", i, r.Error, r.ErrorCode)
		}
		if r.Simulate == nil && r.Model == nil {
			t.Fatalf("job %d delivered empty result", i)
		}
	}
	// The victim was provably serving its sub-sweep when its connections
	// were cut, so the coordinator must have re-scattered that group.
	if lc.Coordinator.reroutes.Value() == 0 {
		t.Error("coordinator reports zero reroutes after a mid-sweep kill")
	}
}

// keyOnBackend builds a simulate request whose ring primary is the
// given backend URL.
func keyOnBackend(t *testing.T, r *Ring, url string) server.SimulateRequest {
	t.Helper()
	for n := 0; n < 10000; n++ {
		req := server.SimulateRequest{
			Cache:   cache.Spec{Kind: "prime", C: 13},
			Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 128 + n, Stream: 1},
		}
		if r.Primary(server.SweepJob{Simulate: &req}.Key()) == url {
			return req
		}
	}
	t.Fatal("no key found for backend; ring distribution broken")
	return server.SimulateRequest{}
}

// TestClusterRoutingMemoLocality checks shard stickiness: the same job
// key lands on the same backend, so the repeat is a memo hit, and
// exactly one backend ever sees the key.
func TestClusterRoutingMemoLocality(t *testing.T) {
	lc, err := StartLocal(3, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	c := client.New(lc.URL(), client.WithRetries(0))
	req := server.SimulateRequest{Pattern: trace.Pattern{Name: "strided", Stride: 7, N: 2048}}
	first, err := c.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Memoized {
		t.Error("first request reported memoized")
	}
	second, err := c.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Memoized {
		t.Error("repeat of identical job not memoized — routing is not key-sticky")
	}
	touched := 0
	for _, b := range lc.Backends {
		if lc.Coordinator.backends[b.URL()].requests.Value() > 0 {
			touched++
		}
	}
	if touched != 1 {
		t.Errorf("identical job touched %d backends, want 1", touched)
	}
}

// TestClusterSingleJobFailover kills a job's primary and checks the
// coordinator reroutes the /v1/simulate to the next ring replica.
func TestClusterSingleJobFailover(t *testing.T) {
	lc, err := StartLocal(3, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	victim := lc.Backends[0].URL()
	req := keyOnBackend(t, lc.Coordinator.ring, victim)
	lc.Kill(0)

	c := client.New(lc.URL(), client.WithRetries(0))
	res, err := c.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("simulate with dead primary: %v", err)
	}
	if res.Stats.Accesses == 0 {
		t.Error("empty stats from failover result")
	}
	if lc.Coordinator.reroutes.Value() == 0 {
		t.Error("failover left the reroute counter at zero")
	}
	if lc.Coordinator.health.healthy(victim) {
		t.Error("dead backend still marked healthy after passive failure")
	}
}

// TestClusterDrainingBackendRoutedAround checks the readiness
// integration: once a backend starts draining, one health-check round
// marks it out and later traffic avoids it entirely.
func TestClusterDrainingBackendRoutedAround(t *testing.T) {
	lc, err := StartLocal(3, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	if err := lc.Backends[0].Server.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	lc.Coordinator.CheckHealth(context.Background())

	hs := lc.Coordinator.health.snapshot()[lc.Backends[0].URL()]
	if hs.Healthy || !hs.Draining {
		t.Fatalf("draining backend state = %+v, want unhealthy+draining", hs)
	}

	got := postSweep(t, lc.URL(), sweep64())
	var out struct {
		Results []server.SweepResult `json:"results"`
	}
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("job %d failed against draining cluster: %s", i, r.Error)
		}
	}
	if n := lc.Coordinator.backends[lc.Backends[0].URL()].requests.Value(); n != 0 {
		t.Errorf("draining backend received %d requests, want 0", n)
	}
}

// TestClusterHedging stalls one backend indefinitely and checks a
// request whose primary it is gets hedged to the replica. The
// coordinator runs on a virtual clock: the hedge fires because the test
// advances time past the hedge delay, not because a wall-clock stall
// resolves — the primary never answers at all.
func TestClusterHedging(t *testing.T) {
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	slow := server.New(server.Options{
		Workers: 1,
		Faults: func(stage string, _ uint64) server.Fault {
			if stage == "compute" {
				<-release
			}
			return server.Fault{}
		},
	})
	defer slow.Close()
	defer releaseOnce()
	fast := server.New(server.Options{})
	defer fast.Close()
	slowTS := httptest.NewServer(slow.Handler())
	defer slowTS.Close()
	fastTS := httptest.NewServer(fast.Handler())
	defer fastTS.Close()

	vclk := sim.NewVirtual()
	coord, err := New(Options{
		Backends:      []string{slowTS.URL, fastTS.URL},
		ProbeInterval: -1,
		HedgeAfter:    20 * time.Millisecond,
		Clock:         vclk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	req := keyOnBackend(t, coord.ring, slowTS.URL)
	c := client.New(cts.URL, client.WithRetries(0))
	type outcome struct {
		res *client.SimulateResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.Simulate(context.Background(), req)
		done <- outcome{res, err}
	}()

	// The hedge timer is the only virtual waiter (the prober is off):
	// once it is armed the primary attempt is in flight and stalled, so
	// advancing past the delay must fire the replica.
	vclk.BlockUntil(1)
	vclk.Advance(20 * time.Millisecond)

	out := <-done
	if out.err != nil {
		t.Fatalf("hedged simulate: %v", out.err)
	}
	if out.res.Stats.Accesses == 0 {
		t.Error("empty stats from hedged result")
	}
	if coord.hedges.Value() == 0 {
		t.Error("hedge counter is zero; the replica was never fired")
	}
	releaseOnce()
}

// TestCoordinatorAdmissionValve checks the coordinator's own overload
// valve: with one slot and a slow backend, a concurrent second request
// is shed with the overloaded envelope and the shed shows in stats.
func TestCoordinatorAdmissionValve(t *testing.T) {
	// The first request's compute blocks until released, so the
	// coordinator's single admission slot is provably occupied — the
	// compute-start signal happens after the coordinator admitted and
	// proxied the request.
	computing := make(chan struct{}, 4)
	release := make(chan struct{})
	node := server.Options{
		Workers: 1,
		Faults: func(stage string, _ uint64) server.Fault {
			if stage == "compute" {
				computing <- struct{}{}
				<-release
			}
			return server.Fault{}
		},
	}
	lc, err := StartLocal(2, node, Options{ProbeInterval: -1, HedgeAfter: -1, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()

	c := client.New(lc.URL(), client.WithRetries(0))
	first := make(chan error, 1)
	go func() {
		_, err := c.Simulate(context.Background(), server.SimulateRequest{
			Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 512},
		})
		first <- err
	}()
	select {
	case <-computing:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached a backend worker")
	}
	_, err = c.Simulate(context.Background(), server.SimulateRequest{
		Pattern: trace.Pattern{Name: "strided", Stride: 5, N: 512},
	})
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != server.CodeOverloaded {
		t.Fatalf("second request err = %v, want coordinator overloaded", err)
	}
	releaseOnce()
	if err := <-first; err != nil {
		t.Fatalf("first request failed: %v", err)
	}

	resp, err := http.Get(lc.URL() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission.Shed == 0 {
		t.Error("stats report zero sheds")
	}
	if stats.Admission.Capacity != 1 {
		t.Errorf("stats capacity = %d, want 1", stats.Admission.Capacity)
	}
	if stats.Cluster.Backends != 2 || stats.Cluster.RingModulus != RingModulus {
		t.Errorf("cluster stats malformed: %+v", stats.Cluster)
	}
}

// TestClusterReadyz checks the coordinator's own readiness: ready while
// any backend is healthy, 503 once all are gone.
func TestClusterReadyz(t *testing.T) {
	lc, err := StartLocal(2, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	get := func() int {
		resp, err := http.Get(lc.URL() + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("readyz with healthy backends = %d", code)
	}
	lc.Kill(0)
	lc.Kill(1)
	lc.Coordinator.CheckHealth(context.Background())
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with all backends dead = %d, want 503", code)
	}
	// A compute request against the dead cluster gets the typed
	// upstream_unavailable envelope (replicas are tried as a last
	// resort, then reported unreachable).
	c := client.New(lc.URL(), client.WithRetries(0))
	_, err = c.Simulate(context.Background(), server.SimulateRequest{
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 256},
	})
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != server.CodeUnavailable {
		t.Fatalf("dead-cluster err = %v, want upstream_unavailable", err)
	}
	if !ce.Temporary() {
		t.Error("upstream_unavailable not classified Temporary")
	}
}

// TestClusterFailoverPrefersWarmReplica checks the warm-replica
// preference: when a job's ring primary dies, the re-route tries the
// replica with the largest reported warm working set first, not the
// next one in ring order.
func TestClusterFailoverPrefersWarmReplica(t *testing.T) {
	lc, err := StartLocal(3, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	primary := lc.Backends[0].URL()
	req := keyOnBackend(t, lc.Coordinator.ring, primary)
	key := server.SweepJob{Simulate: &req}.Key()
	order := lc.Coordinator.ring.Replicas(key, 3)
	if len(order) != 3 || order[0] != primary {
		t.Fatalf("replica order %v, want primary %s first", order, primary)
	}
	// Warm the ring-last replica directly (bypassing the coordinator) so
	// its memo — and therefore its readyz warm_keys — outweighs the
	// ring-second replica's.
	warmURL := order[2]
	wc := client.New(warmURL, client.WithRetries(0))
	for i := 0; i < 4; i++ {
		if _, err := wc.Simulate(context.Background(), server.SimulateRequest{
			Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 4096 + i, Stream: 1},
		}); err != nil {
			t.Fatalf("warming replica: %v", err)
		}
	}
	lc.Coordinator.CheckHealth(context.Background())
	if w := lc.Coordinator.health.warm(warmURL); w < 4 {
		t.Fatalf("warmed replica reports %d warm keys, want >= 4", w)
	}

	// Kill the primary; the next probe round marks it out.
	for i, b := range lc.Backends {
		if b.URL() == primary {
			lc.Kill(i)
		}
	}
	lc.Coordinator.CheckHealth(context.Background())

	cands := lc.Coordinator.candidates(lc.Coordinator.currentRing(), key, nil)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3", len(cands))
	}
	if cands[0].url != warmURL {
		t.Fatalf("first failover candidate is %s, want warm replica %s", cands[0].url, warmURL)
	}
	if cands[2].url != primary {
		t.Fatalf("dead primary is candidate %v, want last", cands)
	}

	// End to end: the proxied job lands on the warm replica, and the
	// cold middle replica sees no traffic.
	c := client.New(lc.URL(), client.WithRetries(0))
	if _, err := c.Simulate(context.Background(), req); err != nil {
		t.Fatalf("simulate with dead primary: %v", err)
	}
	if n := lc.Coordinator.backends[warmURL].requests.Value(); n == 0 {
		t.Error("warm replica saw no requests after failover")
	}
	if n := lc.Coordinator.backends[order[1]].requests.Value(); n != 0 {
		t.Errorf("cold replica saw %d requests; warm preference did not hold", n)
	}
}

// TestClusterConditionalGet checks If-None-Match through the
// coordinator: the second identical request gets a bodiless 304
// carrying the memoized verdict header, with the same ETag a backend
// would emit.
func TestClusterConditionalGet(t *testing.T) {
	lc, err := StartLocal(2, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	body, _ := json.Marshal(server.SimulateRequest{
		Pattern: trace.Pattern{Name: "strided", Stride: 7, N: 1024, Stream: 1},
	})
	post := func(inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, lc.URL()+"/v1/simulate", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	first := post("")
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first request status %d", first.StatusCode)
	}
	etag := first.Header.Get("ETag")
	if etag == "" {
		t.Fatal("coordinator response carries no ETag")
	}

	second := post(etag)
	data, _ := io.ReadAll(second.Body)
	second.Body.Close()
	if second.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional repeat status %d, want 304", second.StatusCode)
	}
	if len(data) != 0 {
		t.Errorf("304 carried a %d-byte body", len(data))
	}
	if got := second.Header.Get(server.MemoizedHeader); got != "true" {
		t.Errorf("%s = %q on 304, want true (repeat is a memo hit)", server.MemoizedHeader, got)
	}
	if second.Header.Get("ETag") != etag {
		t.Errorf("304 ETag %q differs from original %q", second.Header.Get("ETag"), etag)
	}

	// The typed client sees the same round trip as NotModified.
	c := client.New(lc.URL(), client.WithRetries(0))
	var req server.SimulateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	res, err := c.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NotModified {
		t.Error("client repeat against coordinator not served from 304")
	}
	if !res.Memoized {
		t.Error("304-served repeat lost the memoized verdict")
	}
}

// postJob sends req to url+path, with If-None-Match when inm is not
// empty, and returns the response and its body bytes.
func postJob(t *testing.T, url, path string, req any, inm string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if inm != "" {
		hreq.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestCoordinatorForwardsIfNoneMatch: the coordinator passes a caller's
// If-None-Match to the owning backend, which alone answers 304, and
// keeps no validators of its own, so a plain repeat is a plain 200
// from the backend.
func TestCoordinatorForwardsIfNoneMatch(t *testing.T) {
	lc, err := StartLocal(3, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	owner := lc.Backends[1]
	req := keyOnBackend(t, lc.Coordinator.Ring(), owner.URL())
	notModified := owner.Server.Metrics().Counter("etag.notModified")

	resp, _ := postJob(t, owner.URL(), "/v1/simulate", req, "")
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("backend answered %d with ETag %q", resp.StatusCode, etag)
	}

	before := notModified.Value()
	resp, data := postJob(t, lc.URL(), "/v1/simulate", req, etag)
	if resp.StatusCode != http.StatusNotModified || len(data) != 0 {
		t.Fatalf("conditional request through the coordinator: status %d, %d body bytes; want 304 and none", resp.StatusCode, len(data))
	}
	if got := resp.Header.Get(server.MemoizedHeader); got != "true" {
		t.Errorf("%s = %q on 304, want true", server.MemoizedHeader, got)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag %q, want %q", got, etag)
	}
	if n := notModified.Value() - before; n != 1 {
		t.Errorf("backend answered %d conditionals, want 1: the coordinator must forward If-None-Match", n)
	}

	before = notModified.Value()
	resp, data = postJob(t, lc.URL(), "/v1/simulate", req, "")
	if resp.StatusCode != http.StatusOK || len(data) == 0 {
		t.Fatalf("plain repeat through the coordinator: status %d, %d body bytes; want 200 with a body", resp.StatusCode, len(data))
	}
	if n := notModified.Value() - before; n != 0 {
		t.Errorf("a plain repeat cost the backend %d conditionals, want 0: the coordinator must not revalidate on its own", n)
	}
}

// TestClusterSingleJobMatchesSingleNode: single /v1/simulate and
// /v1/model answers through a 3-backend coordinator match a single
// node's in status, ETag, Content-Type, the memoized header and body
// bytes. The jobs are the wire golden's: a simulate miss, its memo
// hit, its 304, a victim-cache job and a model job.
func TestClusterSingleJobMatchesSingleNode(t *testing.T) {
	single := server.New(server.Options{})
	defer single.Close()
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	lc, err := StartLocal(3, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	prime := server.SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 4096},
		Passes:  4,
	}
	victim := server.SimulateRequest{
		Cache:   cache.Spec{Kind: "victim", Lines: 1024, VictimLines: 8},
		Pattern: trace.Pattern{Name: "strided", Stride: 1024, N: 6, Stream: 1},
		Passes:  4,
	}
	model := server.ModelRequest{Banks: 64, Tm: 64, B: 4096}
	transcript := func(url string) string {
		var out bytes.Buffer
		var primeETag string
		exchange := func(name, path string, req any, inm string) {
			resp, data := postJob(t, url, path, req, inm)
			if name == "simulate miss" {
				primeETag = resp.Header.Get("ETag")
			}
			fmt.Fprintf(&out, "== %s\nstatus: %d\netag: %s\ncontent-type: %s\nmemoized-header: %s\nbody:\n%s\n",
				name, resp.StatusCode, resp.Header.Get("ETag"), resp.Header.Get("Content-Type"),
				resp.Header.Get(server.MemoizedHeader), data)
		}
		exchange("simulate miss", "/v1/simulate", prime, "")
		exchange("simulate memo hit", "/v1/simulate", prime, "")
		exchange("simulate not modified", "/v1/simulate", prime, primeETag)
		exchange("simulate victim", "/v1/simulate", victim, "")
		exchange("model", "/v1/model", model, "")
		return out.String()
	}
	want, got := transcript(sts.URL), transcript(lc.URL())
	if got != want {
		t.Fatalf("cluster single-job answers differ from a single node's:\n--- cluster\n%s--- single node\n%s", got, want)
	}
}

// TestCoordinatorStatsSchema2 checks the coordinator's /v1/stats speaks
// schema 2 with the uniform blocks aggregated across backends, and
// announces the schema-1 sunset.
func TestCoordinatorStatsSchema2(t *testing.T) {
	lc, err := StartLocal(2, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	c := client.New(lc.URL(), client.WithRetries(0))
	req := server.SimulateRequest{Pattern: trace.Pattern{Name: "strided", Stride: 5, N: 2048, Stream: 1}}
	for i := 0; i < 2; i++ {
		if _, err := c.Simulate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(lc.URL() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Deprecation") == "" || resp.Header.Get("Sunset") == "" {
		t.Error("coordinator stats missing Deprecation/Sunset headers")
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Schema != server.StatsSchemaVersion {
		t.Errorf("schema = %d, want %d", stats.Schema, server.StatsSchemaVersion)
	}
	if stats.Memo.Hits == 0 {
		t.Error("aggregated memo block reports zero hits after a memoized repeat")
	}
	if stats.Memo.Entries == 0 {
		t.Error("aggregated memo block reports zero entries")
	}
	if stats.Memo.Capacity == 0 {
		t.Error("aggregated memo capacity is zero")
	}
	if stats.Persist.Enabled {
		t.Error("persist block enabled with memory-only backends")
	}
	// The typed client's uniform view decodes the same blocks.
	v2, err := c.StatsV2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v2.Schema != server.StatsSchemaVersion || v2.Memo.Hits != stats.Memo.Hits {
		t.Errorf("client StatsV2 = %+v, disagrees with raw response", v2)
	}
}
