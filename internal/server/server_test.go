package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"primecache/internal/cache"
	"primecache/internal/obs"
	"primecache/internal/trace"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.pool.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 4096},
		Passes:  4,
	}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != 200 {
		t.Fatalf("simulate status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		SimulateResponse
		Memoized bool `json:"memoized"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats.Accesses != 4*4096 {
		t.Errorf("accesses = %d, want %d", out.Stats.Accesses, 4*4096)
	}
	// A prime-mapped cache has no conflicts on this sweep, and the
	// Figure-1 address unit charges one addition per element after the
	// first of each pass (start and stride need no reduction).
	if out.Stats.Conflict != 0 {
		t.Errorf("prime cache saw %d conflict misses on stride-512", out.Stats.Conflict)
	}
	if out.AdderSteps != 4*4095 {
		t.Errorf("adderSteps = %d, want %d", out.AdderSteps, 4*4095)
	}
	if out.Memoized {
		t.Error("first request reported memoized")
	}

	// The direct-mapped baseline must show heavy conflicts on the same
	// sweep — the paper's point, via HTTP.
	req.Cache = cache.Spec{Kind: "direct", Lines: 8192}
	resp, body = postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != 200 {
		t.Fatalf("simulate status = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats.Conflict == 0 {
		t.Error("direct-mapped cache saw no conflicts on stride-512")
	}
}

func TestSimulateAllKinds(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, kind := range cache.SpecKinds() {
		req := SimulateRequest{
			Cache:   cache.Spec{Kind: kind, C: 5, Lines: 64, VictimLines: 4},
			Pattern: trace.Pattern{Name: "subblock", LD: 100, B1: 8, B2: 8},
		}
		resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d: %s", kind, resp.StatusCode, body)
			continue
		}
		var out SimulateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Stats.Accesses != 2*64 {
			t.Errorf("%s: accesses = %d, want 128", kind, out.Stats.Accesses)
		}
		if kind == "victim" && out.Victim == nil {
			t.Error("victim: response missing victim stats")
		}
	}
}

func TestModelEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/model", ModelRequest{Banks: 64, Tm: 64, B: 4096})
	if resp.StatusCode != 200 {
		t.Fatalf("model status = %d: %s", resp.StatusCode, body)
	}
	var out ModelResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	// Paper headline regime (t_m = M = 64): prime beats direct by ~3×
	// and the MM machine by more.
	if out.Speedup < 2 {
		t.Errorf("prime/direct speedup = %.2f, want > 2", out.Speedup)
	}
	if out.MM.CyclesPerResult <= out.Prime.CyclesPerResult {
		t.Errorf("MM CPR %.2f not worse than prime %.2f", out.MM.CyclesPerResult, out.Prime.CyclesPerResult)
	}
	if out.Prime.HitRatio <= out.Direct.HitRatio {
		t.Errorf("prime hit ratio %.3f not above direct %.3f", out.Prime.HitRatio, out.Direct.HitRatio)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		path string
		body string
		code ErrorCode
	}{
		{"/v1/simulate", `{"cache":{"kind":"bogus"}}`, CodeInvalidRequest},
		{"/v1/simulate", `{"cache":{"kind":"prime","c":4}}`, CodeInvalidRequest},
		{"/v1/simulate", `{"pattern":{"name":"fft","n":10,"b2":3}}`, CodeInvalidRequest},
		{"/v1/simulate", `{"passes":-1}`, CodeInvalidRequest},
		{"/v1/simulate", `{"pattern":{"name":"strided","n":2000000000}}`, CodeJobTooLarge},
		{"/v1/simulate", `{"pattern":{"name":"subblock","b1":1000000,"b2":1000000}}`, CodeJobTooLarge},
		{"/v1/simulate", `{"pattern":{"name":"strided","n":4096},"passes":1152921504606846976}`, CodeJobTooLarge},
		{"/v1/simulate", `{"cache":{"kind":"prime","c":31}}`, CodeJobTooLarge},
		{"/v1/simulate", `{"cache":{"kind":"direct","lines":1073741824}}`, CodeJobTooLarge},
		{"/v1/simulate", `{"unknown":1}`, CodeInvalidRequest},
		{"/v1/simulate", `not json`, CodeInvalidRequest},
		{"/v1/model", `{"banks":63}`, CodeInvalidRequest},
		{"/v1/model", `{"pds":1.5}`, CodeInvalidRequest},
		{"/v1/sweep", `{"jobs":[]}`, CodeInvalidRequest},
		{"/v1/sweep", `{"jobs":[{}]}`, CodeInvalidRequest},
		{"/v1/sweep", `{"jobs":[{"simulate":{},"model":{}}]}`, CodeInvalidRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := tc.code.HTTPStatus(); resp.StatusCode != want {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.path, tc.body, resp.StatusCode, want, body)
			continue
		}
		var out ErrorEnvelope
		if err := json.Unmarshal(body, &out); err != nil || out.Error == nil {
			t.Errorf("%s %s: malformed error body %s", tc.path, tc.body, body)
			continue
		}
		if out.Error.Code != tc.code || out.Error.Message == "" {
			t.Errorf("%s %s: error body %+v, want code %q with a message", tc.path, tc.body, out.Error, tc.code)
		}
	}
}

// sweepJobs builds a mixed simulate/model batch whose results are
// deterministic.
func sweepJobs(n int) []SweepJob {
	jobs := make([]SweepJob, n)
	for i := range jobs {
		if i%2 == 0 {
			jobs[i] = SweepJob{Simulate: &SimulateRequest{
				Cache:   cache.Spec{Kind: "prime", C: 7},
				Pattern: trace.Pattern{Name: "strided", Stride: int64(1 + i%8), N: 512},
			}}
		} else {
			jobs[i] = SweepJob{Model: &ModelRequest{Banks: 64, Tm: 16 + i%4, B: 1024}}
		}
	}
	return jobs
}

// serialSweep evaluates the jobs one by one without the server, the
// reference for byte-for-byte comparison.
func serialSweep(t *testing.T, jobs []SweepJob) []SweepResult {
	t.Helper()
	out := make([]SweepResult, len(jobs))
	for i, j := range jobs {
		out[i] = SweepResult{Index: i}
		switch {
		case j.Simulate != nil:
			r, err := runSimulate(context.Background(), *j.Simulate, nil)
			if err != nil {
				t.Fatalf("serial job %d: %v", i, err)
			}
			out[i].Simulate = r
		case j.Model != nil:
			r, err := runModel(*j.Model)
			if err != nil {
				t.Fatalf("serial job %d: %v", i, err)
			}
			out[i].Model = r
		}
	}
	return out
}

// marshalResults renders results with the Memoized flag cleared, so
// memo-served and freshly computed runs compare equal.
func marshalResults(t *testing.T, rs []SweepResult) string {
	t.Helper()
	for i := range rs {
		rs[i].Memoized = false
	}
	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func decodeSweep(t *testing.T, body []byte) []SweepResult {
	t.Helper()
	var out struct {
		Results []SweepResult `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding sweep response: %v\n%s", err, body)
	}
	return out.Results
}

// TestConcurrentSweepMatchesSerial issues 32 concurrent /v1/sweep
// requests and verifies every response matches the serial evaluation
// byte for byte.
func TestConcurrentSweepMatchesSerial(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 8})
	jobs := sweepJobs(24)
	want := marshalResults(t, serialSweep(t, jobs))

	const clients = 32
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(SweepRequest{Jobs: jobs})
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, body := range bodies {
		if body == nil {
			continue
		}
		results := decodeSweep(t, body)
		if len(results) != len(jobs) {
			t.Fatalf("client %d: %d results, want %d", i, len(results), len(jobs))
		}
		for k, r := range results {
			if r.Index != k {
				t.Fatalf("client %d: result %d has index %d (out of order)", i, k, r.Index)
			}
			if r.Error != "" {
				t.Fatalf("client %d job %d: %s", i, k, r.Error)
			}
		}
		if got := marshalResults(t, results); got != want {
			t.Errorf("client %d: concurrent sweep differs from serial evaluation\ngot:  %.200s\nwant: %.200s", i, got, want)
		}
	}
}

// TestMemoization proves identical back-to-back requests hit the memo
// cache, observable via /v1/stats counters.
func TestMemoization(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := SimulateRequest{
		Cache:   cache.Spec{Kind: "direct", Lines: 1024},
		Pattern: trace.Pattern{Name: "strided", Stride: 64, N: 2048},
	}

	statsNow := func() StatsResponse {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	before := statsNow()
	var outs [2]struct {
		SimulateResponse
		Memoized bool `json:"memoized"`
	}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0].Memoized {
		t.Error("first request served from memo")
	}
	if !outs[1].Memoized {
		t.Error("identical second request not served from memo")
	}
	if a, b := outs[0].SimulateResponse, outs[1].SimulateResponse; a != b {
		t.Errorf("memoized response differs from computed: %+v vs %+v", a, b)
	}
	after := statsNow()
	if hits := after.Memo.Hits - before.Memo.Hits; hits != 1 {
		t.Errorf("memo hits delta = %d, want 1", hits)
	}
	if after.Memo.Misses <= before.Memo.Misses {
		t.Error("memo misses did not advance on first request")
	}
	if after.Memo.HitRatio <= 0 {
		t.Error("memo hit ratio not surfaced")
	}
	if after.Metrics.Counters["requests.simulate"] < 2 {
		t.Errorf("requests.simulate = %d, want >= 2", after.Metrics.Counters["requests.simulate"])
	}
	if after.Pool.Workers <= 0 {
		t.Error("pool.workers not surfaced")
	}
}

// TestSweepMemoSharing: a sweep repeating one config computes it once
// and serves the rest from the memo.
func TestSweepMemoSharing(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	job := SweepJob{Model: &ModelRequest{Banks: 32, Tm: 48, B: 2048}}
	jobs := []SweepJob{job, job, job, job}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Jobs: jobs})
	if resp.StatusCode != 200 {
		t.Fatalf("sweep status = %d: %s", resp.StatusCode, body)
	}
	results := decodeSweep(t, body)
	memoized := 0
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("job %d: %s", r.Index, r.Error)
		}
		if r.Memoized {
			memoized++
		}
	}
	if memoized == 0 {
		t.Error("no job in a repeated-config sweep was served from memo")
	}
	if StatsBlocks(s.metrics.Snapshot()).Memo.Hits == 0 {
		t.Error("memo counters saw no hits")
	}
}

// TestRequestTimeout: a job too large for the request timeout returns a
// structured 504 instead of hanging.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Options{RequestTimeout: 5 * time.Millisecond})
	// A set-associative organisation: outside the analytic fast path, so
	// the job really simulates reference by reference.
	req := SimulateRequest{
		Cache:   cache.Spec{Kind: "assoc", Lines: 1 << 17, Ways: 4},
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 1 << 20},
		Passes:  50,
	}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	var out ErrorEnvelope
	if err := json.Unmarshal(body, &out); err != nil || out.Error == nil || out.Error.Code != CodeTimeout {
		t.Errorf("timeout error body malformed: %s", body)
	}
}

// TestGracefulShutdown: SIGTERM-style Shutdown during an in-flight sweep
// lets the completed response reach the client before the listener
// closes.
func TestGracefulShutdown(t *testing.T) {
	// The compute-stage fault hook signals when the sweep's first job is
	// on a worker, so Shutdown provably lands mid-sweep.
	started := make(chan struct{})
	var once sync.Once
	s := New(Options{
		Workers: 2,
		Faults: func(stage string, _ uint64) Fault {
			if stage == "compute" {
				once.Do(func() { close(started) })
			}
			return Fault{}
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A sweep heavy enough to still be in flight when Shutdown begins.
	jobs := make([]SweepJob, 16)
	for i := range jobs {
		jobs[i] = SweepJob{Simulate: &SimulateRequest{
			Cache:   cache.Spec{Kind: "prime", C: 13},
			Pattern: trace.Pattern{Name: "strided", Stride: int64(i + 1), N: 1 << 17},
			Passes:  4,
		}}
	}
	buf, _ := json.Marshal(SweepRequest{Jobs: jobs})

	type reply struct {
		results []SweepResult
		status  int
		err     error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(buf))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			done <- reply{err: err}
			return
		}
		var out struct {
			Results []SweepResult `json:"results"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			done <- reply{err: fmt.Errorf("%v\n%s", err, body)}
			return
		}
		done <- reply{results: out.Results, status: resp.StatusCode}
	}()

	// Wait until the sweep is actually in flight, then shut down.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep never went in flight")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight sweep failed across shutdown: %v", r.err)
	}
	if r.status != 200 {
		t.Fatalf("in-flight sweep status = %d", r.status)
	}
	if len(r.results) != len(jobs) {
		t.Fatalf("in-flight sweep returned %d results, want %d", len(r.results), len(jobs))
	}
	for _, res := range r.results {
		if res.Error != "" {
			t.Errorf("job %d failed during drain: %s", res.Index, res.Error)
		}
	}

	// After shutdown the pool refuses new work.
	if _, err := s.pool.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil }); err != ErrPoolClosed {
		t.Errorf("Submit after Shutdown = %v, want ErrPoolClosed", err)
	}
}

// waitGauge polls g until it reads want, failing the test after ten
// seconds.
func waitGauge(t *testing.T, g *obs.Gauge, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("gauge = %d, want %d", g.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolBounds: at most size jobs run at once, each on the goroutine
// that submitted it; building the pool starts no goroutine; and a
// Submit whose context ends while every slot is held gives up without
// running its job.
func TestPoolBounds(t *testing.T) {
	m := obs.NewRegistry(nil)
	before := runtime.NumGoroutine()
	p := newPool(3, m, nil)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("newPool started %d goroutines", after-before)
	}
	defer p.Close()
	var wg sync.WaitGroup
	var maxBusy int64
	var mu sync.Mutex
	running := make(chan struct{}, 10)
	block := make(chan struct{})
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Submit(context.Background(), func(context.Context) (any, error) {
				mu.Lock()
				if b := m.Gauge("pool.busy").Value(); b > maxBusy {
					maxBusy = b
				}
				mu.Unlock()
				// The job runs on the submitting goroutine, so Submit
				// is a frame of its stack (not just its creator).
				buf := make([]byte, 1<<14)
				if st := string(buf[:runtime.Stack(buf, false)]); !strings.Contains(st, "(*pool).Submit(") {
					t.Errorf("job not run on the submitting goroutine:\n%s", st)
				}
				running <- struct{}{}
				<-block
				return nil, nil
			})
		}()
	}
	// Three jobs announcing themselves means all three slots hold a
	// blocked job; a fourth cannot start until one finishes.
	for i := 0; i < 3; i++ {
		select {
		case <-running:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 3 slots took jobs", i)
		}
	}
	if b := m.Gauge("pool.busy").Value(); b != 3 {
		t.Errorf("busy = %d with 10 blocked jobs on 3 slots", b)
	}
	queued := m.Gauge("pool.queued")
	waitGauge(t, queued, 7)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	var ran atomic.Bool
	go func() {
		_, err := p.Submit(ctx, func(context.Context) (any, error) {
			ran.Store(true)
			return nil, nil
		})
		errc <- err
	}()
	waitGauge(t, queued, 8)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Errorf("Submit with a cancelled context = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Error("job of a cancelled Submit ran")
	}
	if q := queued.Value(); q != 7 {
		t.Errorf("pool.queued = %d after the cancelled Submit, want 7", q)
	}

	close(block)
	wg.Wait()
	if maxBusy > 3 {
		t.Errorf("max busy = %d exceeded pool size 3", maxBusy)
	}
	if got := m.Counter("pool.completed").Value(); got != 10 {
		t.Errorf("completed = %d, want 10", got)
	}
	if q, b := queued.Value(), m.Gauge("pool.busy").Value(); q != 0 || b != 0 {
		t.Errorf("pool.queued = %d, pool.busy = %d when idle, want 0 and 0", q, b)
	}
}

// TestComputeJobSingleFlight: N concurrent identical jobs compute
// exactly once — each goroutine either leads, joins the in-flight call,
// or hits the memo, so pool.completed is 1 under every interleaving.
func TestComputeJobSingleFlight(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	job := SweepJob{Model: &ModelRequest{Banks: 16, Tm: 24, B: 512}}
	var wg sync.WaitGroup
	var memoized atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, m, err := s.computeJob(context.Background(), job, job.Key())
			if err != nil {
				t.Error(err)
				return
			}
			if m {
				memoized.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := s.metrics.Counter("pool.completed").Value(); got != 1 {
		t.Errorf("16 identical concurrent jobs computed %d times, want 1", got)
	}
	if got := memoized.Load(); got != 15 {
		t.Errorf("memoized = %d of 16, want 15 (all but the leader)", got)
	}
}

// TestValidateBoundsBeforeBuild covers the DoS fixes: oversized or
// overflowing jobs must be rejected arithmetically, before any trace is
// materialised. Each call must return promptly — a regression that
// rebuilds the trace first would allocate tens of gigabytes here.
func TestValidateBoundsBeforeBuild(t *testing.T) {
	spec := cache.Spec{Kind: "prime", C: 7}
	for _, tc := range []struct {
		name string
		req  SimulateRequest
	}{
		{"huge strided n", SimulateRequest{Cache: spec,
			Pattern: trace.Pattern{Name: "strided", N: 2_000_000_000}}},
		{"huge subblock b1*b2", SimulateRequest{Cache: spec,
			Pattern: trace.Pattern{Name: "subblock", B1: 1_000_000, B2: 1_000_000}}},
		{"subblock product overflows int", SimulateRequest{Cache: spec,
			Pattern: trace.Pattern{Name: "subblock", B1: math.MaxInt, B2: 2}}},
		{"passes overflows refs*passes", SimulateRequest{Cache: spec,
			Pattern: trace.Pattern{Name: "strided", N: 4096}, Passes: 1 << 60}},
		{"refs*passes over cap without overflow", SimulateRequest{Cache: spec,
			Pattern: trace.Pattern{Name: "strided", N: 1 << 20}, Passes: 1 << 10}},
		{"huge passes with default pattern", SimulateRequest{Cache: spec, Passes: 1 << 60}},
	} {
		if err := tc.req.Validate(DefaultLimits()); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.req)
		} else if ae := asAPIError(err); ae.Code != CodeJobTooLarge {
			t.Errorf("%s: Validate code = %q, want %q", tc.name, ae.Code, CodeJobTooLarge)
		}
	}
	ok := SimulateRequest{Cache: spec, Pattern: trace.Pattern{Name: "strided", N: 4096}, Passes: 2}
	if err := ok.Validate(DefaultLimits()); err != nil {
		t.Errorf("in-bounds request rejected: %v", err)
	}
}

// TestValidateBoundsCacheSize: a cache spec above MaxCacheLines frames
// is rejected job_too_large by Validate, which builds nothing, so a
// request for 2^31 − 1 sets costs no allocation; the largest prime cache
// under the bound still passes.
func TestValidateBoundsCacheSize(t *testing.T) {
	pat := trace.Pattern{Name: "strided", N: 64}
	for _, tc := range []struct {
		spec cache.Spec
		ok   bool
	}{
		{cache.Spec{Kind: "prime", C: 31}, false},
		{cache.Spec{Kind: "direct", Lines: 1 << 30}, false},
		{cache.Spec{Kind: "direct", Lines: 1 << 21}, false},
		{cache.Spec{Kind: "prime-assoc", C: 19, Ways: 4}, false},
		{cache.Spec{Kind: "victim", Lines: 1 << 20, VictimLines: 1}, false},
		{cache.Spec{Kind: "prime", C: 19}, true},
		{cache.Spec{Kind: "prime-assoc", C: 19, Ways: 2}, true},
		{cache.Spec{Kind: "direct", Lines: 1 << 20}, true},
		{cache.Spec{Kind: "full", Lines: 1 << 20}, true},
	} {
		req := SimulateRequest{Cache: tc.spec, Pattern: pat}
		err := req.Validate(DefaultLimits())
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.spec, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: accepted, want job_too_large", tc.spec)
		case !tc.ok && asAPIError(err).Code != CodeJobTooLarge:
			t.Errorf("%s: code %q, want %q", tc.spec, asAPIError(err).Code, CodeJobTooLarge)
		}
	}
	huge := SimulateRequest{Cache: cache.Spec{Kind: "prime", C: 31}, Pattern: pat}
	if a := testing.AllocsPerRun(10, func() { _ = huge.Validate(DefaultLimits()) }); a > 16 {
		t.Errorf("rejecting prime c=31 allocates %v times; Validate must not build the cache", a)
	}
}

// TestPoolQueuedGaugeOnClose: Close does not return while a job is
// running, refuses every Submit from the moment it starts, and leaves
// the pool.queued gauge at zero.
func TestPoolQueuedGaugeOnClose(t *testing.T) {
	m := obs.NewRegistry(nil)
	p := newPool(1, m, nil)
	running := make(chan struct{})
	block := make(chan struct{})
	go p.Submit(context.Background(), func(context.Context) (any, error) {
		close(running)
		<-block
		return nil, nil
	})
	<-running
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	nop := func(context.Context) (any, error) { return nil, nil }
	if _, err := p.Submit(context.Background(), nop); err != ErrPoolClosed {
		t.Errorf("Submit while closing = %v, want ErrPoolClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a job was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the running job finished")
	}
	p.Close() // idempotent
	for i := 0; i < 100; i++ {
		if _, err := p.Submit(context.Background(), nop); err != ErrPoolClosed {
			t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
		}
	}
	if q := m.Gauge("pool.queued").Value(); q != 0 {
		t.Errorf("pool.queued = %d after close, want 0", q)
	}
	if c := m.Counter("pool.completed").Value(); c != 1 {
		t.Errorf("pool.completed = %d, want 1", c)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	m := NewMemo(2)
	m.Put("a", 1)
	m.Put("b", 2)
	if _, ok := m.Get("a"); !ok {
		t.Fatal("a missing")
	}
	m.Put("c", 3) // evicts b (least recently used)
	if _, ok := m.Get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := m.Get("a"); !ok {
		t.Error("a evicted out of LRU order")
	}
	if ev, n := m.evictions.Value(), m.Len(); ev != 1 || n != 2 {
		t.Errorf("evictions = %d, entries = %d, want 1 and 2", ev, n)
	}
	// Disabled memo never stores.
	d := NewMemo(0)
	d.Put("x", 1)
	if _, ok := d.Get("x"); ok {
		t.Error("disabled memo returned a value")
	}
}

func TestMetricsHistogram(t *testing.T) {
	var h obs.Histogram
	h.Observe(50 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(20 * time.Second) // overflow bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	var overflow bool
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
		if b.UpperUs == -1 {
			overflow = true
		}
	}
	if total != 3 {
		t.Errorf("bucket counts sum to %d, want 3", total)
	}
	if !overflow {
		t.Error("20s observation missing from overflow bucket")
	}
}
