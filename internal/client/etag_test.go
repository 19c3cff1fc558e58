package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"primecache/internal/client"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// TestConditionalRequestRoundTrip drives the client's ETag cache
// against a real vcached instance: the first call fetches and stores
// the validator, the identical second call carries If-None-Match, is
// answered 304 bodiless, and surfaces the stored payload with
// NotModified set and the server's memoization verdict from the header.
func TestConditionalRequestRoundTrip(t *testing.T) {
	s := server.New(server.Options{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(0))
	ctx := context.Background()
	req := server.SimulateRequest{Pattern: trace.Pattern{Name: "strided", Stride: 5, N: 4096}, Passes: 2}

	first, err := c.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("first simulate: %v", err)
	}
	if first.NotModified {
		t.Error("first response claims NotModified with an empty cache")
	}
	if first.ETag == "" {
		t.Fatal("first response carries no ETag")
	}

	second, err := c.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("second simulate: %v", err)
	}
	if !second.NotModified {
		t.Error("identical repeat was not answered from the conditional cache")
	}
	if !second.Memoized {
		t.Error("304 did not carry the server's memoized verdict")
	}
	if second.ETag != first.ETag {
		t.Errorf("ETag changed across identical requests: %q then %q", first.ETag, second.ETag)
	}
	if !reflect.DeepEqual(second.Stats, first.Stats) {
		t.Errorf("stored copy diverged from the original:\n got %+v\nwant %+v", second.Stats, first.Stats)
	}

	mreq := server.ModelRequest{}
	m1, err := c.Model(ctx, mreq)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	m2, err := c.Model(ctx, mreq)
	if err != nil {
		t.Fatalf("second model: %v", err)
	}
	if !m2.NotModified || m2.ETag != m1.ETag || m2.Speedup != m1.Speedup {
		t.Errorf("model conditional round trip: NotModified=%v etag %q vs %q speedup %v vs %v",
			m2.NotModified, m2.ETag, m1.ETag, m2.Speedup, m1.Speedup)
	}
}

// TestConditionalDisabled pins WithETagCache(0): no validator is
// stored, no If-None-Match is sent, every response is a full 200.
func TestConditionalDisabled(t *testing.T) {
	var conditional atomic.Int64
	s := server.New(server.Options{Workers: 2})
	defer s.Shutdown(context.Background())
	inner := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			conditional.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(0), client.WithETagCache(0))
	ctx := context.Background()
	req := server.SimulateRequest{Pattern: trace.Pattern{Name: "strided", Stride: 5, N: 4096}, Passes: 2}
	for i := 0; i < 2; i++ {
		res, err := c.Simulate(ctx, req)
		if err != nil {
			t.Fatalf("simulate %d: %v", i, err)
		}
		if res.NotModified {
			t.Errorf("call %d: NotModified with conditionals disabled", i)
		}
	}
	if n := conditional.Load(); n != 0 {
		t.Errorf("client sent %d conditional requests with the ETag cache disabled", n)
	}
}

// TestRelay: Relay hands back a node's answer as its bytes with the
// ETag, a matching If-None-Match as a nil body with the memoized
// verdict, and fails on a 2xx body that is not one JSON value.
func TestRelay(t *testing.T) {
	s := server.New(server.Options{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetries(0))
	ctx := context.Background()
	req := server.ModelRequest{Banks: 64, Tm: 64, B: 4096}

	body, etag, _, err := c.Relay(ctx, "/v1/model", req, "")
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/model", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if etag == "" || etag != resp.Header.Get("ETag") {
		t.Errorf("relayed ETag %q, node sends %q", etag, resp.Header.Get("ETag"))
	}
	// The node's second answer is a memo hit; so is the relayed one
	// after the first call, which is the only field that differs.
	if got := bytes.Replace(body, []byte(`"memoized": false`), []byte(`"memoized": true`), 1); !bytes.Equal(got, want) {
		t.Errorf("relayed body differs from the node's bytes:\n%s\nwant\n%s", body, want)
	}

	body, etag2, memoized, err := c.Relay(ctx, "/v1/model", req, etag)
	if err != nil || body != nil || etag2 != etag || !memoized {
		t.Errorf("conditional relay: body %q, ETag %q, memoized %v, err %v; want nil body, %q, true", body, etag2, memoized, err, etag)
	}

	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"stats": {`))
	}))
	defer broken.Close()
	if body, _, _, err := client.New(broken.URL, client.WithRetries(0)).Relay(ctx, "/v1/model", req, ""); err == nil {
		t.Errorf("Relay accepted a body that is not JSON: %q", body)
	}
}

// TestStatsV2SchemaShim exercises the client's versioned-stats path
// against both generations: a live schema-2 server, and a stub
// replaying a schema-1 body (no schema field, no persist block) that
// the shim must stamp as schema 1 with a zero persist tier.
func TestStatsV2SchemaShim(t *testing.T) {
	s := server.New(server.Options{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx := context.Background()
	c := client.New(ts.URL, client.WithRetries(0))
	req := server.SimulateRequest{Pattern: trace.Pattern{Name: "strided", Stride: 5, N: 4096}, Passes: 2}
	if _, err := c.Simulate(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulate(ctx, req); err != nil {
		t.Fatal(err)
	}
	v2, err := c.StatsV2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Schema != server.StatsSchemaVersion {
		t.Errorf("live server schema = %d, want %d", v2.Schema, server.StatsSchemaVersion)
	}
	if v2.Memo.Hits == 0 {
		t.Error("schema-2 memo block lost the hit counter")
	}
	if v2.Persist.Enabled {
		t.Error("memory-only server reports an enabled persist tier")
	}

	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"memo": map[string]any{"enabled": true, "hits": 7, "misses": 3, "hitRatio": 0.7},
		})
	}))
	defer legacy.Close()
	lv2, err := client.New(legacy.URL, client.WithRetries(0)).StatsV2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lv2.Schema != 1 {
		t.Errorf("schema-1 body stamped as schema %d, want 1", lv2.Schema)
	}
	if lv2.Memo.Hits != 7 || lv2.Memo.Misses != 3 {
		t.Errorf("shared memo block did not survive the shim: %+v", lv2.Memo)
	}
	if lv2.Persist.Enabled || lv2.Persist.Keys != 0 {
		t.Errorf("schema-1 shim invented a persist tier: %+v", lv2.Persist)
	}
}
