package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/persist"
	"primecache/internal/trace"
)

// TestWireGolden pins the exact response bytes of the compute
// endpoints: status, ETag, Content-Type, the memoized header and the
// body of a /v1/simulate miss, its memo hit and its 304, a victim-cache
// job, a window job (answered in closed form below the 2^22-reference
// cutoff), a /v1/model answer, a /v1/sweep mixing both job kinds, and the
// persist record one job leaves on disk. Any change to how a result is
// serialised, hashed or framed shows up as a diff of
// testdata/wire.golden; regenerate it with `make golden-update` only
// when the change is intended.
func TestWireGolden(t *testing.T) {
	store, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Workers: 2, Persist: store})

	prime := SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 4096},
		Passes:  4,
	}
	victim := SimulateRequest{
		Cache:   cache.Spec{Kind: "victim", Lines: 1024, VictimLines: 8},
		Pattern: trace.Pattern{Name: "strided", Stride: 1024, N: 6, Stream: 1},
		Passes:  4,
	}
	// 4096 refs × 17 passes = 69632, above prime c=13's closed-form
	// floor of 4·(2·8191+1) = 65532 references.
	window := SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 4096},
		Passes:  17,
	}
	model := ModelRequest{Banks: 64, Tm: 64, B: 4096}
	sweep := SweepRequest{Jobs: []SweepJob{
		{Model: &ModelRequest{Tm: 16}},
		{Simulate: &prime},
		{Simulate: &SimulateRequest{
			Cache:   cache.Spec{Kind: "assoc", Lines: 4096, Ways: 4},
			Pattern: trace.Pattern{Name: "strided", Stride: 17, N: 8192, Stream: 1},
			Passes:  2,
		}},
		{Model: &model},
	}}

	var out bytes.Buffer
	var primeETag string
	exchange := func(name, path string, body any, ifNoneMatch string) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if name == "simulate miss" {
			primeETag = resp.Header.Get("ETag")
		}
		fmt.Fprintf(&out, "== %s\nstatus: %d\netag: %s\ncontent-type: %s\nmemoized-header: %s\nbody:\n%s\n",
			name, resp.StatusCode, resp.Header.Get("ETag"), resp.Header.Get("Content-Type"),
			resp.Header.Get(MemoizedHeader), data)
	}
	exchange("simulate miss", "/v1/simulate", prime, "")
	exchange("simulate memo hit", "/v1/simulate", prime, "")
	exchange("simulate not modified", "/v1/simulate", prime, primeETag)
	exchange("simulate victim", "/v1/simulate", victim, "")
	exchange("simulate window job", "/v1/simulate", window, "")
	exchange("model", "/v1/model", model, "")
	exchange("sweep", "/v1/sweep", sweep, "")

	rec, ok := s.Persist().Get(SweepJob{Simulate: &prime}.Key())
	if !ok {
		t.Fatal("simulate job left no persist record")
	}
	fmt.Fprintf(&out, "== persist record\n%s\n", rec)
	checkGolden(t, "wire.golden", out.Bytes())
}
