package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// BenchmarkCoordinatorSweep times one 33-job sweep through a 3-backend
// local cluster whose memos already hold every job, so each operation
// is routing, fan-out, the backends' memo answers, and the
// coordinator's relay and merge: no simulation. Allocations count the
// whole in-process cluster and the client reading the body.
func BenchmarkCoordinatorSweep(b *testing.B) {
	lc, err := StartLocal(3, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	specs := []cache.Spec{
		{Kind: "prime", C: 13},
		{Kind: "direct", Lines: 8192},
		{Kind: "assoc", Lines: 8192, Ways: 4},
		{Kind: "victim", Lines: 8192},
	}
	var req server.SweepRequest
	for i := 0; i < 30; i++ {
		req.Jobs = append(req.Jobs, server.SweepJob{Simulate: &server.SimulateRequest{
			Cache:   specs[i%len(specs)],
			Pattern: trace.Pattern{Name: "strided", Stride: int64(1 + 2*i), N: 512, Stream: 1},
			Passes:  2,
		}})
	}
	for i := 0; i < 3; i++ {
		req.Jobs = append(req.Jobs, server.SweepJob{Model: &server.ModelRequest{B: 1024 << uint(i), Tm: 32}})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	sweep := func() {
		resp, err := http.Post(lc.URL()+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n == 0 {
			b.Fatalf("sweep: status %d, %d bytes, %v", resp.StatusCode, n, err)
		}
	}
	sweep() // fill the backends' memos
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// BenchmarkCoordinatorSimulate times one memo-hit /v1/simulate through
// a 3-backend local cluster: routing, the owning backend's memo answer
// and the coordinator's relay of it. The plain sub-benchmark sends no
// validator and reads a 200 body; if-none-match sends the job's ETag
// and reads a bodiless 304. Allocations count the whole in-process
// cluster and the client reading the answer.
func BenchmarkCoordinatorSimulate(b *testing.B) {
	lc, err := StartLocal(3, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	body, err := json.Marshal(server.SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 4096},
		Passes:  4,
	})
	if err != nil {
		b.Fatal(err)
	}
	simulate := func(b *testing.B, inm string, want int) string {
		req, err := http.NewRequest(http.MethodPost, lc.URL()+"/v1/simulate", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != want {
			b.Fatalf("simulate: status %d, want %d, %v", resp.StatusCode, want, err)
		}
		return resp.Header.Get("ETag")
	}
	etag := simulate(b, "", http.StatusOK) // fill the owning backend's memo
	for _, bc := range []struct {
		name string
		inm  string
		want int
	}{
		{"plain", "", http.StatusOK},
		{"if-none-match", etag, http.StatusNotModified},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				simulate(b, bc.inm, bc.want)
			}
		})
	}
}
