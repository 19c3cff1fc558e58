package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/client"
	"primecache/internal/persist"
	"primecache/internal/server"
	"primecache/internal/trace"
)

const testAdminToken = "test-admin-token"

// persistBackend boots one vcached node with its own disk tier.
func persistBackend(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	store, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{Persist: store})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func adminJob(i int) server.SimulateRequest {
	return server.SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: int64(3 + 2*i), N: 256, Stream: 1},
	}
}

func TestAdminAuth(t *testing.T) {
	lc, err := StartLocal(2, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	// No token configured: the admin surface does not exist.
	cl := client.New(lc.URL(), client.WithAdminToken(testAdminToken))
	defer cl.Close()
	_, err = cl.AdminBackends(context.Background())
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != server.CodeNotFound {
		t.Fatalf("admin list on token-less coordinator: err = %v, want not_found", err)
	}

	lc2, err := StartLocal(2, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1, AdminToken: testAdminToken})
	if err != nil {
		t.Fatal(err)
	}
	defer lc2.Close()

	// Wrong (and missing) credentials: unauthorized.
	for _, bad := range []*client.Client{
		client.New(lc2.URL(), client.WithAdminToken("wrong")),
		client.New(lc2.URL()),
	} {
		_, err = bad.AdminBackends(context.Background())
		if !errors.As(err, &ce) || ce.Code != server.CodeUnauthorized {
			t.Fatalf("bad credential: err = %v, want unauthorized", err)
		}
		bad.Close()
	}

	// The right token lists the membership.
	good := client.New(lc2.URL(), client.WithAdminToken(testAdminToken))
	defer good.Close()
	view, err := good.AdminBackends(context.Background())
	if err != nil {
		t.Fatalf("authorized list: %v", err)
	}
	if len(view.Backends) != 2 || view.VirtualNodes != RingVirtualNodes || view.RingVersion != 0 {
		t.Fatalf("unexpected membership view: %+v", view)
	}
	for _, b := range view.Backends {
		if !b.Healthy {
			t.Fatalf("backend %s not healthy in fresh cluster: %+v", b.URL, view)
		}
	}
}

// TestAdminJoinMigratesWarmState is the tentpole end to end: warm a
// 2-node cluster through real traffic, join a third node, and prove
// the coordinator moved the joiner's shard onto it before routing
// flipped — the joiner answers a migrated job memoized, from disk,
// with zero pool work.
func TestAdminJoinMigratesWarmState(t *testing.T) {
	var backends []string
	for i := 0; i < 2; i++ {
		_, ts := persistBackend(t)
		backends = append(backends, ts.URL)
	}
	coord, err := New(Options{Backends: backends, ProbeInterval: -1, HedgeAfter: -1, AdminToken: testAdminToken})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	cl := client.New(cts.URL, client.WithAdminToken(testAdminToken))
	defer cl.Close()

	// Warm the cluster: every computed job lands in its owner's disk
	// tier. Remember each job by its canonical key for the probe below.
	jobByKey := map[string]server.SimulateRequest{}
	var sweep server.SweepRequest
	for i := 0; i < 48; i++ {
		req := adminJob(i)
		jobByKey[server.SweepJob{Simulate: &req}.Key()] = req
		sweep.Jobs = append(sweep.Jobs, server.SweepJob{Simulate: &req})
	}
	results, err := cl.Sweep(context.Background(), sweep)
	if err != nil {
		t.Fatalf("warming sweep: %v", err)
	}
	for _, sr := range results {
		if sr.Error != "" {
			t.Fatalf("warming job %d failed: %s", sr.Index, sr.Error)
		}
	}

	joinSrv, joinTS := persistBackend(t)
	res, err := cl.AdminJoin(context.Background(), joinTS.URL)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if res.RingVersion != 1 {
		t.Errorf("ring version after join = %d, want 1", res.RingVersion)
	}
	if len(res.Backends) != 3 {
		t.Errorf("membership after join = %v, want 3 backends", res.Backends)
	}
	if res.MigratedKeys == 0 {
		t.Fatal("join migrated zero keys from a warmed cluster")
	}
	if res.MigrationErrors != 0 {
		t.Errorf("join reported %d migration errors", res.MigrationErrors)
	}

	// Every key the joiner now holds must be one it owns on the new
	// ring, and the joiner must answer it memoized without pool work.
	ring := coord.Ring()
	if !ring.Has(joinTS.URL) {
		t.Fatal("joiner missing from the swapped ring")
	}
	probed := 0
	pool0 := joinSrv.Metrics().Counter("pool.completed").Value()
	jcl := client.New(joinTS.URL, client.WithRetries(0))
	defer jcl.Close()
	for key, req := range jobByKey {
		if ring.Primary(key) != joinTS.URL {
			continue
		}
		if !joinSrv.Persist().Has(key) {
			t.Fatalf("joiner owns key %s but migration did not deliver it", key)
		}
		out, err := jcl.Simulate(context.Background(), req)
		if err != nil {
			t.Fatalf("probing joiner for %s: %v", key, err)
		}
		if !out.Memoized {
			t.Fatalf("joiner answered its migrated key %s unmemoized", key)
		}
		probed++
	}
	if probed == 0 {
		t.Fatal("joiner captured none of the warmed keys; distribution tests should make this impossible")
	}
	if pool1 := joinSrv.Metrics().Counter("pool.completed").Value(); pool1 != pool0 {
		t.Errorf("joiner burned %d pool jobs answering migrated keys, want 0", pool1-pool0)
	}
}

func TestAdminLeaveDrainsAndMigrates(t *testing.T) {
	var backends []string
	var servers []*server.Server
	for i := 0; i < 3; i++ {
		srv, ts := persistBackend(t)
		backends = append(backends, ts.URL)
		servers = append(servers, srv)
	}
	coord, err := New(Options{Backends: backends, Replicas: 3, ProbeInterval: -1, HedgeAfter: -1, AdminToken: testAdminToken})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	cl := client.New(cts.URL, client.WithAdminToken(testAdminToken))
	defer cl.Close()

	var sweep server.SweepRequest
	keys := make([]string, 0, 48)
	for i := 0; i < 48; i++ {
		req := adminJob(i)
		keys = append(keys, server.SweepJob{Simulate: &req}.Key())
		sweep.Jobs = append(sweep.Jobs, server.SweepJob{Simulate: &req})
	}
	if _, err := cl.Sweep(context.Background(), sweep); err != nil {
		t.Fatalf("warming sweep: %v", err)
	}

	leaver := backends[0]
	wasOwned := 0
	for _, k := range keys {
		if coord.Ring().Primary(k) == leaver {
			wasOwned++
		}
	}
	res, err := cl.AdminLeave(context.Background(), leaver)
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	if !res.Drained {
		t.Error("leave reported an un-drained removal on an idle cluster")
	}
	if len(res.Backends) != 2 {
		t.Errorf("membership after leave = %v, want 2 backends", res.Backends)
	}
	if res.RingVersion != 1 {
		t.Errorf("ring version after leave = %d, want 1", res.RingVersion)
	}
	if wasOwned > 0 && res.MigratedKeys == 0 {
		t.Errorf("leaver owned %d warmed keys but the leave migrated none", wasOwned)
	}
	if coord.Ring().Has(leaver) {
		t.Fatal("departed backend still on the ring")
	}

	// The departed backend's shard must answer from its new owners —
	// memoized, since the leave migrated the records out.
	for i := 0; i < 48; i++ {
		req := adminJob(i)
		key := server.SweepJob{Simulate: &req}.Key()
		out, err := cl.Simulate(context.Background(), req)
		if err != nil {
			t.Fatalf("post-leave job %d: %v", i, err)
		}
		if !out.Memoized {
			t.Errorf("post-leave repeat of key %s recomputed; warm state was lost", key)
		}
	}

	// A double leave is rejected cleanly.
	var ce *client.Error
	if _, err := cl.AdminLeave(context.Background(), leaver); !errors.As(err, &ce) || ce.Code != server.CodeInvalidRequest {
		t.Fatalf("second leave: err = %v, want invalid_request", err)
	}
}

// TestRingSwapNeverUnavailable hammers the coordinator with zero-retry
// traffic while the membership churns through repeated join/leave
// cycles. The atomic ring swap plus per-request ring capture must keep
// every request servable: no request may ever observe
// upstream_unavailable (or any other error) because the ring changed
// under it.
func TestRingSwapNeverUnavailable(t *testing.T) {
	lc, err := StartLocal(2, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1, AdminToken: testAdminToken})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	extraSrv := server.New(server.Options{})
	extraTS := httptest.NewServer(extraSrv.Handler())
	defer extraTS.Close()
	defer extraSrv.Close()

	stop := make(chan struct{})
	var firstErr atomic.Value
	var requests atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := client.New(lc.URL(), client.WithRetries(0))
			defer cl.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := adminJob((w*31 + i) % 24)
				if _, err := cl.Simulate(context.Background(), req); err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("worker %d request %d: %w", w, i, err))
					return
				}
				requests.Add(1)
			}
		}(w)
	}

	acl := client.New(lc.URL(), client.WithAdminToken(testAdminToken))
	defer acl.Close()
	const cycles = 5
	for i := 0; i < cycles; i++ {
		if _, err := acl.AdminJoin(context.Background(), extraTS.URL); err != nil {
			t.Fatalf("cycle %d join: %v", i, err)
		}
		if _, err := acl.AdminLeave(context.Background(), extraTS.URL); err != nil {
			t.Fatalf("cycle %d leave: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if err := firstErr.Load(); err != nil {
		t.Fatalf("request failed during ring churn: %v", err)
	}
	if v := lc.Coordinator.RingVersion(); v != 2*cycles {
		t.Errorf("ring version = %d after %d swaps", v, 2*cycles)
	}
	if requests.Load() == 0 {
		t.Error("no requests completed during the churn window")
	}
	t.Logf("churn survived: %d zero-retry requests across %d ring swaps", requests.Load(), 2*cycles)
}
