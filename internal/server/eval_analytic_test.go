package server

import (
	"context"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/core"
	"primecache/internal/trace"
)

// vectorDrive computes req's response on the vector front-end: one
// core.VectorCache.LoadVector per evalChunk elements of each pass, with
// the prime cache's Figure-1 address unit cross-checking every index
// and counting its additions. It is the reference the closed form and
// the served batch replay are pinned against.
func vectorDrive(t *testing.T, req SimulateRequest) *SimulateResponse {
	t.Helper()
	req = req.Normalize()
	p := req.Pattern
	start0, stride, n0, ok := p.Vector()
	if !ok {
		t.Fatalf("pattern %s is not one vector per pass", p)
	}
	vc, err := core.FromSpec(req.Cache)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < req.Passes; pass++ {
		start := start0
		for done := 0; done < n0; done += evalChunk {
			n := min(n0-done, evalChunk)
			if _, err := vc.LoadVector(start, stride, n, p.Stream); err != nil {
				t.Fatal(err)
			}
			start += uint64(int64(n) * stride)
		}
	}
	resp := &SimulateResponse{
		Cache:       vc.Cache().Describe(),
		Spec:        req.Cache.String(),
		Pattern:     p.String(),
		Passes:      req.Passes,
		RefsPerPass: n0,
		Stats:       vc.Stats(),
		AdderSteps:  vc.AdderSteps(),
	}
	resp.HitRatio = resp.Stats.HitRatio()
	resp.MissRatio = resp.Stats.MissRatio()
	return resp
}

// TestServedMatchesVectorFrontEnd pins what the server answers for
// strided and diagonal jobs by batch replay, with AdderSteps from
// analyticAdderSteps, against the vector front-end driving the same
// sweep: the whole response must agree, the address unit's additions
// included. Lengths fall below, at and above one evalChunk vector; the
// longer jobs run on prime c=17, whose closed-form floor (more than
// 4·(2·sets+1) references) is above them, so they are still replayed.
func TestServedMatchesVectorFrontEnd(t *testing.T) {
	prime, prime17 := cache.Spec{Kind: "prime", C: 13}, cache.Spec{Kind: "prime", C: 17}
	for _, tc := range []struct {
		name string
		req  SimulateRequest
	}{
		{"below chunk", SimulateRequest{Cache: prime,
			Pattern: trace.Pattern{Name: "strided", Start: 9, Stride: 512, N: 1000, Stream: 1}, Passes: 3}},
		{"at chunk", SimulateRequest{Cache: prime17,
			Pattern: trace.Pattern{Name: "strided", Start: 1 << 40, Stride: 8193, N: evalChunk, Stream: 1}, Passes: 2}},
		{"above chunk", SimulateRequest{Cache: prime17,
			Pattern: trace.Pattern{Name: "strided", Start: 7, Stride: 129, N: 2*evalChunk + 17, Stream: 1}, Passes: 2}},
		{"negative stride", SimulateRequest{Cache: prime17,
			Pattern: trace.Pattern{Name: "strided", Start: 1 << 40, Stride: -70001, N: evalChunk + 5, Stream: 1}, Passes: 2}},
		{"diagonal", SimulateRequest{Cache: prime17,
			Pattern: trace.Pattern{Name: "diagonal", Start: 3, LD: 1 << 20, N: evalChunk + 100, Stream: 2}, Passes: 2}},
		{"direct", SimulateRequest{Cache: cache.Spec{Kind: "direct", Lines: 8192},
			Pattern: trace.Pattern{Name: "strided", Stride: 64, N: 4096, Stream: 1}, Passes: 2}},
		{"prime-assoc", SimulateRequest{Cache: cache.Spec{Kind: "prime-assoc", C: 7, Ways: 2},
			Pattern: trace.Pattern{Name: "diagonal", LD: 126, N: 3000, Stream: 1}, Passes: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req.Normalize()
			served, err := runSimulate(context.Background(), req, nil)
			if err != nil {
				t.Fatal(err)
			}
			if served.Analytic {
				t.Fatal("job was answered by the closed form, not replayed")
			}
			if want := vectorDrive(t, req); *served != *want {
				t.Errorf("served response diverges from the vector front-end:\n served %+v\n vector %+v", *served, *want)
			}
		})
	}
}

// TestAnalyticMatchesVectorPath answers the same job in closed form, as
// the analytic path does once its gate and guard pass, and on the
// vector front-end, and requires byte-identical responses (stats, refs,
// adder steps) — the analytic path must be a pure optimisation,
// invisible except for the flag. The chunk-boundary cases are
// TestServedMatchesVectorFrontEnd's on prime c=13, where the server
// answers them in closed form.
func TestAnalyticMatchesVectorPath(t *testing.T) {
	prime := cache.Spec{Kind: "prime", C: 13}
	for _, tc := range []struct {
		name string
		req  SimulateRequest
	}{
		{"at chunk", SimulateRequest{Cache: prime,
			Pattern: trace.Pattern{Name: "strided", Start: 1 << 40, Stride: 8193, N: evalChunk, Stream: 1}, Passes: 2}},
		{"above chunk", SimulateRequest{Cache: prime,
			Pattern: trace.Pattern{Name: "strided", Start: 7, Stride: 129, N: 2*evalChunk + 17, Stream: 1}, Passes: 2}},
		{"negative stride", SimulateRequest{Cache: prime,
			Pattern: trace.Pattern{Name: "strided", Start: 1 << 40, Stride: -70001, N: evalChunk + 5, Stream: 1}, Passes: 2}},
		{"diagonal chunked", SimulateRequest{Cache: prime,
			Pattern: trace.Pattern{Name: "diagonal", Start: 3, LD: 1 << 20, N: evalChunk + 100, Stream: 2}, Passes: 2}},
		{"prime coprime stride", SimulateRequest{
			Cache:   cache.Spec{Kind: "prime", C: 13},
			Pattern: trace.Pattern{Name: "strided", Start: 9, Stride: 512, N: 1 << 14, Stream: 1},
			Passes:  5,
		}},
		{"prime capacity regime", SimulateRequest{
			Cache:   cache.Spec{Kind: "prime", C: 5},
			Pattern: trace.Pattern{Name: "strided", Start: 0, Stride: 3, N: 1 << 15, Stream: 1},
			Passes:  2,
		}},
		{"prime multi-chunk", SimulateRequest{
			Cache:   cache.Spec{Kind: "prime", C: 13},
			Pattern: trace.Pattern{Name: "strided", Start: 7, Stride: 129, N: 3*evalChunk + 11, Stream: 1},
			Passes:  2,
		}},
		{"direct pow2 stride", SimulateRequest{
			Cache:   cache.Spec{Kind: "direct", Lines: 8192},
			Pattern: trace.Pattern{Name: "strided", Start: 0, Stride: 64, N: 1 << 14, Stream: 1},
			Passes:  4,
		}},
		{"diagonal", SimulateRequest{
			Cache:   cache.Spec{Kind: "prime", C: 13},
			Pattern: trace.Pattern{Name: "diagonal", Start: 3, LD: 1024, N: 1 << 14, Stream: 2},
			Passes:  4,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req.Normalize()
			stats, _, err := trace.ClosedForm(nil, req.Cache, req.Pattern, req.Passes)
			if err != nil {
				t.Fatal(err)
			}
			fast, slow := simulateResponse(req, stats), vectorDrive(t, req)
			if *fast != *slow {
				t.Errorf("analytic response diverges from vector simulation:\n analytic %+v\n vector   %+v", *fast, *slow)
			}
		})
	}
}

// TestAnalyticDoesNotApply pins the fallbacks: organisations and sizes
// the closed form must decline.
func TestAnalyticDoesNotApply(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  SimulateRequest
	}{
		{"too small", SimulateRequest{
			Cache:   cache.Spec{Kind: "prime", C: 13},
			Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 1 << 10, Stream: 1},
			Passes:  2,
		}},
		{"at the guard floor", SimulateRequest{ // 4·(2·8191+1) = 65532 refs
			Cache:   cache.Spec{Kind: "prime", C: 13},
			Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 16383, Stream: 1},
			Passes:  4,
		}},
		{"assoc organisation", SimulateRequest{
			Cache:   cache.Spec{Kind: "assoc", Lines: 8192, Ways: 4},
			Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 1 << 20, Stream: 1},
			Passes:  8,
		}},
		{"victim organisation", SimulateRequest{
			Cache:   cache.Spec{Kind: "victim", Lines: 8192},
			Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 1 << 20, Stream: 1},
			Passes:  8,
		}},
		{"subblock pattern", SimulateRequest{
			Cache:   cache.Spec{Kind: "prime", C: 13},
			Pattern: trace.Pattern{Name: "subblock", LD: 4096, B1: 2048, B2: 2048, Stream: 1},
			Passes:  2,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if resp := trySimulateAnalytic(tc.req.Normalize(), &simShelf{}); resp != nil {
				t.Errorf("job unexpectedly qualified for the analytic path: %+v", resp)
			}
		})
	}
}

// TestSimulateHugeSweepIsAnalytic goes through the public runSimulate
// entry point with a job that would issue 32M references and checks it
// is answered analytically (and therefore instantly).
func TestSimulateHugeSweepIsAnalytic(t *testing.T) {
	resp, err := runSimulate(context.Background(), SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 8191, N: 1 << 22, Stream: 1},
		Passes:  8,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Analytic {
		t.Fatal("huge sweep was not answered analytically")
	}
	// Stride = C: every reference lands in one set. Pass 1 is all
	// compulsory; every later pass thrashes that set with capacity
	// misses (the sweep far exceeds the shadow directory).
	n := uint64(1 << 22)
	if resp.Stats.Accesses != 8*n || resp.Stats.Compulsory != n || resp.Stats.Capacity != 7*n || resp.Stats.Hits != 0 {
		t.Errorf("unexpected stats for one-set sweep: %v", resp.Stats)
	}
}

// TestAnalyticGateEndToEnd runs one threshold-sized job through
// trySimulateAnalytic (gate + admission guard + closed form) and the
// vector front-end, requiring identical responses.
func TestAnalyticGateEndToEnd(t *testing.T) {
	req := SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Start: 5, Stride: 512, N: 1 << 19, Stream: 1},
		Passes:  8, // N × passes == analyticMinRefs exactly
	}.Normalize()
	fast := trySimulateAnalytic(req, &simShelf{})
	if fast == nil {
		t.Fatal("threshold-sized job did not qualify for the analytic path")
	}
	if !fast.Analytic {
		t.Fatal("analytic response not flagged")
	}
	slow := vectorDrive(t, req)
	fast.Analytic = false
	if *fast != *slow {
		t.Errorf("analytic response diverges from vector simulation:\n analytic %+v\n vector   %+v", *fast, *slow)
	}
}
