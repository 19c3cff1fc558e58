package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"primecache/internal/cache"
	"primecache/internal/client"
	"primecache/internal/obs"
	"primecache/internal/persist"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// node is one in-process vcached instance with a persist tier, reached
// over loopback HTTP through the typed client.
type node struct {
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
	cl  *client.Client
}

func startNode(dir string, tracer *obs.Tracer) (*node, error) {
	store, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{Persist: store, Tracer: tracer})
	ts := httptest.NewServer(srv.Handler())
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	return &node{srv: srv, ts: ts, hc: hc, cl: newClient(ts.URL, hc)}, nil
}

// newClient is the load generator's client: no retries (a 429 or an
// error is a failed operation) and no conditional cache (conditional
// requests are issued explicitly).
func newClient(url string, hc *http.Client) *client.Client {
	return client.New(url, client.WithRetries(0), client.WithETagCache(0), client.WithHTTPClient(hc))
}

// shutdown drains the node and closes its persist tier cleanly (sync
// and index snapshot), as a graceful restart does.
func (n *node) shutdown() error {
	n.ts.Close()
	n.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return n.srv.Shutdown(ctx)
}

// warmConnections opens one keep-alive connection per client so the
// first timed requests do not pay for dialing.
func warmConnections(c *client.Client) error {
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() { errs <- c.Healthz(context.Background()) }()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// nodeCounts reads a node's /v1/stats through the client.
func nodeCounts(c *client.Client) (tierCounts, error) {
	st, err := c.Stats(context.Background())
	if err != nil {
		return tierCounts{}, err
	}
	ctr := st.Metrics.Counters
	return tierCounts{
		memoCap:       uint64(st.Memo.Capacity),
		memoHits:      st.Memo.Hits,
		memoMisses:    st.Memo.Misses,
		persistHits:   st.Persist.Hits,
		persistMisses: st.Persist.Misses,
		poolRuns:      ctr["pool.completed"],
		notModified:   ctr["etag.notModified"],
		shed:          st.Admission.Shed,
		requests:      ctr["requests.simulate"] + ctr["requests.model"] + ctr["requests.sweep"],
	}, nil
}

// callJob issues one job through the typed client inside a span of
// the benchmark's own tracer, so the node's edge span becomes its
// child and their difference is the client's overhead. It returns the
// answer and its ETag.
func callJob(ctx context.Context, c *client.Client, tr *obs.Tracer, job server.SweepJob) (server.SweepResult, string, error) {
	if tr != nil {
		var span *obs.Span
		name := "client.simulate"
		if job.Model != nil {
			name = "client.model"
		}
		ctx, span = tr.StartSpan(ctx, name)
		defer span.End()
	}
	if job.Model != nil {
		r, err := c.Model(ctx, *job.Model)
		if err != nil {
			return server.SweepResult{}, "", err
		}
		return server.SweepResult{Model: &r.ModelResponse, Memoized: r.Memoized}, r.ETag, nil
	}
	r, err := c.Simulate(ctx, *job.Simulate)
	if err != nil {
		return server.SweepResult{}, "", err
	}
	return server.SweepResult{Simulate: &r.SimulateResponse, Memoized: r.Memoized}, r.ETag, nil
}

// cold is service-cold: every request a distinct job, so every request
// is admitted, evaluated on the pool, inserted into the memo and
// appended to the persist log. Each answer is checked as it arrives
// and only the counts are kept.
type cold struct {
	seed   int64
	dir    string
	n      *node
	tracer *obs.Tracer // the benchmark's client spans; nil untraced
	want   map[int]cache.Stats

	mu     sync.Mutex
	v      verdict
	served shares
}

func setupCold(cfg config, traced bool) (instance, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "cold-")
	if err != nil {
		return nil, err
	}
	c := &cold{seed: cfg.seed, dir: dir, want: cfg.want}
	var nodeTracer *obs.Tracer
	if traced {
		c.tracer, nodeTracer = newTracer("bench"), newTracer("vcached")
	}
	if c.n, err = startNode(dir, nodeTracer); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := warmConnections(c.n.cl); err != nil {
		c.close()
		return nil, err
	}
	// Warm-up: one job of every class on instances the timed phase
	// never uses, so every evaluation path has run once.
	for class := range serviceMenu {
		job := serviceJob(class, seedBase(cfg.seed)+1<<24)
		if _, _, err := callJob(context.Background(), c.n.cl, nil, job); err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up %s: %w", serviceMenu[class].name, err)
		}
	}
	if err := fillMemo(c.n.cl, seedBase(cfg.seed)+1<<25); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// fillMemo brings a fresh node's memo to the capacity /v1/stats
// reports, with small distinct simulate jobs, so the timed phase
// starts in the steady state of a long-running node — every insert
// evicts — instead of growing the heap, and with it the collector's
// pacing, while it is measured.
func fillMemo(c *client.Client, first uint64) error {
	st, err := c.Stats(context.Background())
	if err != nil {
		return err
	}
	capacity := st.Memo.Capacity
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		go func(w int) {
			for i := w; i < capacity; i += clients {
				req := server.SimulateRequest{Cache: prime7,
					Pattern: trace.Pattern{Name: "strided", Start: (first + uint64(i)) * period, N: 16}}
				if _, err := c.Simulate(context.Background(), req); err != nil {
					errs <- fmt.Errorf("filling the memo: %w", err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < clients; w++ {
		if e := <-errs; e != nil {
			err = e
		}
	}
	if err != nil {
		return err
	}
	if st, err = c.Stats(context.Background()); err != nil {
		return err
	}
	if st.Memo.Entries != capacity {
		return fmt.Errorf("filling the memo: %d entries, capacity %d", st.Memo.Entries, capacity)
	}
	return nil
}

// do issues operation seq and checks its answer against the oracle
// statistics computed before set-up; a wrong answer fails the
// operation.
func (c *cold) do(ctx context.Context, seq int) error {
	class, job := coldJob(c.seed, seq)
	res, _, err := callJob(ctx, c.n.cl, c.tracer, job)
	if err != nil {
		return err
	}
	if res.Memoized {
		err = fmt.Errorf("%s: distinct job answered memoized", serviceMenu[class].name)
	} else {
		err = checkAnswer(class, job, res, c.want)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.v.problem("op %d: %v", seq, err)
		return err
	}
	c.served.count(res)
	return nil
}

func (c *cold) simRefs(seq int) uint64 { return classRefs(seq % len(serviceMenu)) }

// verify reports the mismatches the operations found and the digest
// of the statistics they were checked against.
func (c *cold) verify(tierDelta) verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.v
	v.digest = classDigest(c.want)
	return v
}

func (c *cold) counters() (tierCounts, error) { return nodeCounts(c.n.cl) }

func (c *cold) shares() shares {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.served
}

func (c *cold) tracers() []*obs.Tracer { return nonNil(c.tracer, c.n.srv.Tracer()) }

func (c *cold) close() error {
	err := c.n.shutdown()
	os.RemoveAll(c.dir)
	return err
}

// hot is service-hot: a node booted warm from a persist directory that
// setup wrote and snapshotted, asked again for one job of every menu
// class, as a caller re-running the documented requests does. The
// first touch of a key is a persist hit, every later one a memo hit. A
// quarter of the requests carry the ETag setup learned and must be
// answered 304: the documentation gives no share for conditional
// callers, and a quarter keeps the p50 and p90 inside the latency mode
// of the answers with a body, not between it and the 304s'.
type hot struct {
	dir    string
	n      *node
	tracer *obs.Tracer
	want   map[int]cache.Stats

	jobs    []server.SweepJob    // the key table, one job per menu class
	answers []server.SweepResult // setup's answers
	etags   []string
	bodies  [][]byte // request bodies for the conditional requests

	mu      sync.Mutex
	touched map[int]int // operations per key
	nm      int         // 304 answers
	served  shares
}

func setupHot(cfg config, traced bool) (instance, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "hot-")
	if err != nil {
		return nil, err
	}
	h := &hot{dir: dir, want: cfg.want, touched: map[int]int{}}
	fail := func(err error) (instance, error) {
		if h.n != nil {
			h.n.shutdown()
		}
		os.RemoveAll(dir)
		return nil, err
	}
	for class := range serviceMenu {
		h.jobs = append(h.jobs, serviceJob(class, seedBase(cfg.seed)))
	}
	// First incarnation computes every key and shuts down cleanly.
	first, err := startNode(dir, nil)
	if err != nil {
		return fail(err)
	}
	for _, job := range h.jobs {
		res, etag, err := callJob(context.Background(), first.cl, nil, job)
		if err != nil {
			first.shutdown()
			return fail(err)
		}
		var payload any = job.Simulate
		if job.Model != nil {
			payload = job.Model
		}
		body, err := json.Marshal(payload)
		if err != nil {
			first.shutdown()
			return fail(err)
		}
		h.answers, h.etags, h.bodies = append(h.answers, res), append(h.etags, etag), append(h.bodies, body)
	}
	if err := first.shutdown(); err != nil {
		return fail(err)
	}
	// Warm restart on the same directory.
	var nodeTracer *obs.Tracer
	if traced {
		h.tracer, nodeTracer = newTracer("bench"), newTracer("vcached")
	}
	if h.n, err = startNode(dir, nodeTracer); err != nil {
		return fail(err)
	}
	if err := warmConnections(h.n.cl); err != nil {
		return fail(err)
	}
	// The memo is filled with other keys, as a long-running node's is,
	// so the heap is that of a node with a full memo: with the warm
	// node's few keys alone, the window peaks swung by a third between
	// runs.
	if err := fillMemo(h.n.cl, seedBase(cfg.seed)+1<<25); err != nil {
		return fail(err)
	}
	return h, nil
}

func (h *hot) do(ctx context.Context, seq int) error {
	idx := seq % len(serviceMenu)
	h.mu.Lock()
	h.touched[idx]++
	h.mu.Unlock()
	if hotConditional(seq) {
		if err := h.conditional(ctx, idx); err != nil {
			return err
		}
		h.mu.Lock()
		h.nm++
		h.mu.Unlock()
		return nil
	}
	res, _, err := callJob(ctx, h.n.cl, h.tracer, h.jobs[idx])
	if err != nil {
		return err
	}
	if !res.Memoized || !sameResult(res, h.answers[idx]) {
		return fmt.Errorf("key %d: memoized=%v, payload equal=%v", idx, res.Memoized, sameResult(res, h.answers[idx]))
	}
	h.mu.Lock()
	h.served.count(res)
	h.mu.Unlock()
	return nil
}

// conditional replays key idx with If-None-Match set to the ETag the
// first incarnation returned; validators are content hashes, equal
// across restarts, so the answer must be a bodiless 304 from a tier.
func (h *hot) conditional(ctx context.Context, idx int) error {
	if h.tracer != nil {
		var span *obs.Span
		ctx, span = h.tracer.StartSpan(ctx, "client.conditional")
		defer span.End()
	}
	path := "/v1/simulate"
	if h.jobs[idx].Model != nil {
		path = "/v1/model"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.n.ts.URL+path, bytes.NewReader(h.bodies[idx]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("If-None-Match", h.etags[idx])
	obs.Inject(ctx, req.Header)
	resp, err := h.n.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, _ := io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNotModified || n != 0 || resp.Header.Get(server.MemoizedHeader) != "true" {
		return fmt.Errorf("key %d: conditional answered %d with %d body bytes, memoized=%q",
			idx, resp.StatusCode, n, resp.Header.Get(server.MemoizedHeader))
	}
	return nil
}

func (h *hot) simRefs(int) uint64 { return 0 }

// verify oracle-checks the answers the node was warmed with (the ops
// compared their answers with them as they ran) and checks the tier
// accounting: nothing ran on the pool, and every lookup was a memo
// hit or a persist hit.
func (h *hot) verify(d tierDelta) verdict {
	var v verdict
	for idx := range checkTable(h.jobs, h.answers, h.want, &v) {
		v.bad += h.touched[idx] // every op on a wrong key served a wrong answer
	}
	lookups := d.memoHits + d.memoMisses
	switch {
	case d.poolRuns != 0:
		v.problem("warm node ran %d jobs on the pool", d.poolRuns)
	case d.persistHits != d.memoMisses:
		v.problem("%d memo misses but %d persist hits", d.memoMisses, d.persistHits)
	case lookups != d.requests:
		v.problem("%d memo lookups for %d requests", lookups, d.requests)
	case d.notModified != uint64(h.nm):
		v.problem("node counted %d 304s, client saw %d", d.notModified, h.nm)
	}
	return v
}

func (h *hot) counters() (tierCounts, error) { return nodeCounts(h.n.cl) }

func (h *hot) shares() shares {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.served
}

func (h *hot) tracers() []*obs.Tracer { return nonNil(h.tracer, h.n.srv.Tracer()) }

func (h *hot) close() error {
	err := h.n.shutdown()
	os.RemoveAll(h.dir)
	return err
}
