package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"primecache/internal/client"
	"primecache/internal/obs"
	"primecache/internal/server"
	"primecache/internal/sim"
)

// Options configures a Coordinator.
type Options struct {
	// Backends are the vcached base URLs behind the coordinator.
	Backends []string
	// Replicas is how many distinct backends a job may be tried on
	// (primary plus failovers); <= 0 selects 2, values beyond the
	// backend count are clamped.
	Replicas int
	// ProbeInterval is the active health-check period; 0 selects 2s,
	// < 0 disables the background loop (CheckNow still works).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readiness probe; 0 selects 1s.
	ProbeTimeout time.Duration
	// HedgeAfter is the floor on the hedge delay for single-job calls:
	// when the primary has not answered after max(HedgeAfter, its
	// observed p95 latency), the request is also fired at the
	// next replica and the first success wins. 0 selects 50ms, < 0
	// disables hedging.
	HedgeAfter time.Duration
	// MaxInflight caps concurrently admitted requests at the
	// coordinator — its own admission valve, in front of the backends'.
	// 0 selects 256; < 0 disables the valve.
	MaxInflight int
	// RequestTimeout bounds one proxied request end to end, including
	// failover attempts; 0 selects 2 minutes, < 0 disables.
	RequestTimeout time.Duration
	// ClientOptions apply to every backend client. The coordinator owns
	// retry policy (failover across replicas), so per-backend clients
	// default to zero retries and no conditional-request cache.
	ClientOptions []client.Option
	// Clock is the time source behind the readiness-probe ticker, hedge
	// timers, and per-backend latency histograms; nil selects the real
	// clock. Simulation tests inject a sim.Virtual clock.
	Clock sim.Clock
	// Tracer, when non-nil, roots a trace per proxied request and spans
	// every backend call and scatter-gather leg; the trace ID rides the
	// X-Vcache-Trace header so backend spans stitch under the
	// coordinator's. Finished traces are served at /v1/debug/traces.
	Tracer *obs.Tracer
	// DropRescatter is a test-only fault: instead of re-scattering a
	// failed sub-sweep to the next replica, the coordinator silently
	// drops the group. It exists so the chaos harness can prove its
	// no-lost-jobs invariant actually trips on a failover bug; nothing
	// outside a test may set it.
	DropRescatter bool
	// AdminToken, when non-empty, enables the /v1/admin membership API,
	// gated by this bearer token. Empty keeps the admin surface off
	// (requests answer not_found).
	AdminToken string
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Replicas > len(o.Backends) {
		o.Replicas = len(o.Backends)
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 50 * time.Millisecond
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 256
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 2 * time.Minute
	}
	return o
}

// backendState is one backend as the coordinator sees it: its client
// plus its rows in the coordinator's registry (label backend=<url>),
// which /metrics and /v1/stats report. track fills in the rows when the
// backend enters the member table.
type backendState struct {
	url      string
	client   *client.Client
	requests *obs.Counter
	failures *obs.Counter
	inflight *obs.Gauge
	latency  *obs.Histogram
}

// Coordinator fronts a set of vcached backends: it routes /v1/simulate
// and /v1/model by canonical job key over a consistent-hash ring,
// scatters /v1/sweep batches across healthy backends and gathers the
// results back in input order, and fails jobs over to the next ring
// replica when a backend dies, drains, or sheds.
type Coordinator struct {
	opts   Options
	clock  sim.Clock
	tracer *obs.Tracer
	health *health
	mux    *http.ServeMux

	// metrics holds every counter and gauge /metrics exposes, including
	// the per-backend rows.
	metrics *obs.Registry

	// Membership. The ring is copy-on-write: a membership change builds
	// a whole new Ring and swaps the pointer under memberMu, so a
	// request that captured the old ring keeps routing on a consistent
	// view while new requests see the new one. adminMu serializes
	// join/leave end to end (migration included) without holding
	// memberMu, so routing never blocks on a migration.
	adminMu     sync.Mutex
	memberMu    sync.RWMutex
	ring        *Ring
	ringVersion uint64
	backends    map[string]*backendState

	// Admission valve: nil when disabled.
	slots chan struct{}
	shed  obs.Counter

	hedges   obs.Counter
	reroutes obs.Counter
	requests obs.Counter

	// Membership-change counters, surfaced in /v1/stats and /metrics.
	joins           obs.Counter
	leaves          obs.Counter
	migratedKeys    obs.Counter
	migratedBytes   obs.Counter
	migrationErrors obs.Counter
}

// New builds a Coordinator over opts.Backends and runs one synchronous
// round of health checks before returning, so the first request already
// routes around a dead backend. Stop with Close.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(opts.Backends)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:     opts,
		clock:    sim.Or(opts.Clock),
		tracer:   opts.Tracer,
		ring:     ring,
		backends: make(map[string]*backendState, len(opts.Backends)),
		mux:      http.NewServeMux(),
		metrics:  obs.NewRegistry(nil),
	}
	c.registerMetrics()
	for _, u := range opts.Backends {
		c.backends[u] = c.track(&backendState{url: u, client: c.newBackendClient(u)})
	}
	if opts.MaxInflight > 0 {
		c.slots = make(chan struct{}, opts.MaxInflight)
	}
	c.health = newHealth(opts.Backends, c.probeBackend, opts.ProbeInterval, opts.ProbeTimeout, c.clock)
	ctx, cancel := context.WithTimeout(context.Background(), opts.ProbeTimeout+time.Second)
	c.health.CheckNow(ctx)
	cancel()
	c.health.start()

	c.mux.HandleFunc("POST /v1/simulate", c.traced("coord.simulate", c.handleSimulate))
	c.mux.HandleFunc("POST /v1/model", c.traced("coord.model", c.handleModel))
	c.mux.HandleFunc("POST /v1/sweep", c.traced("coord.sweep", c.handleSweep))
	c.mux.HandleFunc("GET /v1/healthz", c.tracedLive("healthz", c.handleHealthz))
	c.mux.HandleFunc("GET /v1/readyz", c.tracedLive("readyz", c.handleReadyz))
	c.mux.HandleFunc("GET /v1/stats", c.tracedLive("stats", c.handleStats))
	c.mux.HandleFunc("GET /metrics", c.tracedLive("metrics", c.handleMetrics))
	c.mux.HandleFunc("GET /v1/debug/traces", c.tracedLive("traces", c.tracer.TracesHandler()))
	c.mux.HandleFunc("GET /v1/admin/backends", c.tracedLive("admin.list", c.requireAdmin(c.handleAdminList)))
	c.mux.HandleFunc("POST /v1/admin/backends", c.traced("admin.join", c.requireAdmin(c.handleAdminJoin)))
	c.mux.HandleFunc("DELETE /v1/admin/backends", c.traced("admin.leave", c.requireAdmin(c.handleAdminLeave)))
	return c, nil
}

// newBackendClient builds a backend's client. The coordinator owns
// retries (failover) and keeps no result cache.
func (c *Coordinator) newBackendClient(url string) *client.Client {
	return client.New(url, append([]client.Option{client.WithRetries(0), client.WithETagCache(0)}, c.opts.ClientOptions...)...)
}

// traced wraps a proxied-compute handler with the edge span of its
// trace: the local root when the request arrives bare, a remote child
// when it carries the propagation header. The span's context rides the
// request so every backend call beneath stitches under it.
func (c *Coordinator) traced(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.tracer == nil {
			h(w, r)
			return
		}
		ctx := r.Context()
		var span *obs.Span
		if tid, sid, ok := obs.ParseHeader(r.Header.Get(obs.Header)); ok {
			ctx, span = c.tracer.StartRemoteSpan(ctx, name, tid, sid)
		} else {
			ctx, span = c.tracer.StartSpan(ctx, name)
		}
		h(w, r.WithContext(ctx))
		span.End()
	}
}

// tracedLive marks a probe/observability handler as deliberately
// untraced: scrapes and health probes arrive every few seconds and
// would churn the ring with single-span traces. The wrapper exists so
// every route registration goes through a span-policy wrapper, which
// the obscheck lint enforces.
func (c *Coordinator) tracedLive(_ string, h http.HandlerFunc) http.HandlerFunc {
	return h
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Ring returns the current routing ring (read-only; a membership
// change swaps in a new one).
func (c *Coordinator) Ring() *Ring { return c.currentRing() }

// RingVersion counts atomic ring swaps since boot.
func (c *Coordinator) RingVersion() uint64 {
	c.memberMu.RLock()
	defer c.memberMu.RUnlock()
	return c.ringVersion
}

// currentRing snapshots the routing ring. Handlers capture it once per
// request: in-flight work (sweep legs included) finishes against the
// ring it started on while new requests route on the new one.
func (c *Coordinator) currentRing() *Ring {
	c.memberMu.RLock()
	defer c.memberMu.RUnlock()
	return c.ring
}

// backendFor returns backend's live state, nil when it has been
// removed (a request routed on an old ring may still name it).
func (c *Coordinator) backendFor(backend string) *backendState {
	c.memberMu.RLock()
	defer c.memberMu.RUnlock()
	return c.backends[backend]
}

// CheckHealth runs one synchronous round of readiness probes.
func (c *Coordinator) CheckHealth(ctx context.Context) { c.health.CheckNow(ctx) }

// Close stops the health checker and releases the backend clients'
// idle connections.
func (c *Coordinator) Close() {
	c.health.close()
	c.memberMu.RLock()
	defer c.memberMu.RUnlock()
	for _, b := range c.backends {
		b.client.Close()
	}
}

// probeBackend is the active health check: one readyz round trip. The
// readyz body also carries the backend's warm-key count (memo plus
// persist tier), which feeds the warm-replica preference in
// candidates().
func (c *Coordinator) probeBackend(ctx context.Context, backend string) (ready, draining bool, warmKeys int) {
	b := c.backendFor(backend)
	if b == nil {
		return false, false, 0 // removed while a probe was in flight
	}
	rz, err := b.client.Readyz(ctx)
	if rz != nil {
		warmKeys = rz.WarmKeys
	}
	if err != nil {
		return false, rz != nil && rz.Draining, warmKeys
	}
	return true, false, warmKeys
}

// admit claims a coordinator admission slot; on overload it writes the
// 429 envelope and returns false.
func (c *Coordinator) admit(w http.ResponseWriter) (release func(), ok bool) {
	c.requests.Inc()
	if c.slots == nil {
		return func() {}, true
	}
	select {
	case c.slots <- struct{}{}:
		return func() { <-c.slots }, true
	default:
		c.shed.Inc()
		ae := server.Errf(server.CodeOverloaded, "cluster: coordinator at capacity (%d in flight)", cap(c.slots))
		ae.RetryAfterMs = 250
		writeErr(w, ae)
		return nil, false
	}
}

// requestCtx applies the coordinator's end-to-end timeout.
func (c *Coordinator) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if c.opts.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), c.opts.RequestTimeout)
}

// candidates returns the backends to try for key, in order: the ring's
// replica sequence with excluded members removed and healthy backends
// first. A healthy ring primary keeps its position — that is where the
// job's memo entry lives — but the failover tail is re-ordered
// warmest-first by each backend's last reported warm-key count, so a
// re-scatter prefers a replica whose memo or persist tier can likely
// answer without recomputing. When the primary itself is down or
// excluded, every healthy replica is a failover target and the whole
// healthy run is warm-sorted. The sort is stable: equal warmth
// preserves ring order, keeping routing deterministic. Unhealthy
// replicas stay at the tail as a last resort — when every replica
// looks down, trying one anyway is how the cluster recovers before the
// next probe.
func (c *Coordinator) candidates(ring *Ring, key string, excluded map[string]bool) []*backendState {
	urls := ring.Replicas(key, c.opts.Replicas)
	var healthy, down []*backendState
	for _, u := range urls {
		if excluded[u] {
			continue
		}
		b := c.backendFor(u)
		if b == nil {
			continue // removed after this request captured its ring
		}
		if c.health.healthy(u) {
			healthy = append(healthy, b)
		} else {
			down = append(down, b)
		}
	}
	if len(healthy) > 1 {
		tail := healthy
		if tail[0].url == urls[0] {
			tail = tail[1:]
		}
		sort.SliceStable(tail, func(i, j int) bool {
			return c.health.warm(tail[i].url) > c.health.warm(tail[j].url)
		})
	}
	return append(healthy, down...)
}

// retryable reports whether err could succeed on another replica:
// typed temporary API errors and transport failures can; validation
// errors and the caller's own context ending cannot.
func retryable(err error) bool {
	var ce *client.Error
	if errors.As(err, &ce) {
		return ce.Temporary()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true // transport-level failure
}

// noteFailure updates passive health from one failed call.
func (c *Coordinator) noteFailure(b *backendState, err error) {
	var ce *client.Error
	if errors.As(err, &ce) {
		if ce.Code == server.CodeShuttingDown {
			c.health.reportDraining(b.url)
		}
		return // an API answer means the backend is alive
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	c.health.reportFailure(b.url)
}

// hedgeQuantile is the per-backend latency quantile priced into the
// hedge delay and reported as BackendStats.P95Us.
const hedgeQuantile = 0.95

// hedgeDelay prices the hedge trigger for b: its observed hedgeQuantile
// latency once enough samples exist, floored by HedgeAfter and capped
// at 2s. Zero means hedging is off.
func (c *Coordinator) hedgeDelay(b *backendState) time.Duration {
	if c.opts.HedgeAfter < 0 {
		return 0
	}
	d := c.opts.HedgeAfter
	snap := b.latency.Snapshot()
	if snap.Count >= 16 {
		if q := time.Duration(snap.QuantileUs(hedgeQuantile)) * time.Microsecond; q > d {
			d = q
		}
	}
	if max := 2 * time.Second; d > max {
		d = max
	}
	return d
}

// callBackend runs one client call against b with the per-backend
// bookkeeping every path shares.
func (c *Coordinator) callBackend(b *backendState, fn func() error) error {
	b.requests.Inc()
	b.inflight.Inc()
	start := c.clock.Now()
	err := fn()
	b.latency.Observe(c.clock.Since(start))
	b.inflight.Dec()
	if err != nil {
		b.failures.Inc()
	}
	return err
}

// relayed is a backend's answer to a single job: the body bytes (nil
// for a 304), the ETag and, on a 304, the memoized verdict.
type relayed struct {
	body     []byte
	etag     string
	memoized bool
}

// runSingle executes one simulate/model job at path: try the key's
// replicas in ring order, hedging the primary after its latency
// quantile and failing over on any retryable error. The first success
// wins; losers are cancelled.
func (c *Coordinator) runSingle(ctx context.Context, ring *Ring, key, path string, req any, ifNoneMatch string) (relayed, error) {
	cands := c.candidates(ring, key, nil)
	if len(cands) == 0 {
		return relayed{}, server.Errf(server.CodeUnavailable, "cluster: no backend available for job")
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		v   relayed
		err error
		b   *backendState
	}
	results := make(chan attempt, len(cands))
	launched := 0
	launch := func() {
		b := cands[launched]
		idx := launched
		launched++
		go func() {
			// One span per backend attempt; attempt > 0 means a hedge
			// or a failover, and the shared trace ID is what lets the
			// chaos harness prove failover hops stay in one trace.
			cctx, span := obs.Start(actx, "call",
				obs.String("backend", b.url), obs.Int("attempt", idx))
			var v relayed
			err := c.callBackend(b, func() error {
				var err error
				v.body, v.etag, v.memoized, err = b.client.Relay(cctx, path, req, ifNoneMatch)
				return err
			})
			span.SetAttr("ok", strconv.FormatBool(err == nil))
			span.End()
			results <- attempt{v: v, err: err, b: b}
		}()
	}
	launch()

	var hedgeC <-chan time.Time
	if d := c.hedgeDelay(cands[0]); d > 0 && len(cands) > 1 {
		t := c.clock.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	pending := 1
	var lastErr error
	for {
		select {
		case a := <-results:
			pending--
			if a.err == nil {
				return a.v, nil
			}
			lastErr = a.err
			c.noteFailure(a.b, a.err)
			if err := ctx.Err(); err != nil {
				return relayed{}, err
			}
			if !retryable(a.err) {
				return relayed{}, a.err
			}
			if launched < len(cands) {
				c.reroutes.Inc()
				launch()
				pending++
			}
			if pending == 0 {
				return relayed{}, unavailableErr(lastErr)
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(cands) {
				c.hedges.Inc()
				launch()
				pending++
			}
		case <-ctx.Done():
			return relayed{}, ctx.Err()
		}
	}
}

// unavailableErr wraps the last per-replica error once every replica
// has failed.
func unavailableErr(last error) *server.APIError {
	msg := "no replica could serve the job"
	var ce *client.Error
	if errors.As(last, &ce) {
		msg = fmt.Sprintf("every replica failed, last: %s: %s", ce.Code, ce.Message)
	} else if last != nil {
		msg = "every replica failed, last: " + last.Error()
	}
	return server.Errf(server.CodeUnavailable, "cluster: %s", msg)
}

// apiErrorFrom maps any proxied-call error to the envelope the
// coordinator's own client-facing response carries.
func apiErrorFrom(err error) *server.APIError {
	var ae *server.APIError
	if errors.As(err, &ae) {
		return ae
	}
	var ce *client.Error
	if errors.As(err, &ce) {
		out := server.Errf(ce.Code, "%s", ce.Message)
		out.RetryAfterMs = ce.RetryAfter.Milliseconds()
		return out
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return server.Errf(server.CodeTimeout, "request timed out")
	case errors.Is(err, context.Canceled):
		return server.Errf(server.CodeCancelled, "request cancelled")
	default:
		return server.Errf(server.CodeUnavailable, "cluster: %v", err)
	}
}

// writeErr answers with the server's error envelope, so a coordinator
// fails byte-compatibly with a single node.
func writeErr(w http.ResponseWriter, err error) { server.WriteError(w, apiErrorFrom(err)) }

func (c *Coordinator) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req server.SimulateRequest
	c.proxyJob(w, r, "/v1/simulate", &req, server.SweepJob{Simulate: &req})
}

func (c *Coordinator) handleModel(w http.ResponseWriter, r *http.Request) {
	var req server.ModelRequest
	c.proxyJob(w, r, "/v1/model", &req, server.SweepJob{Model: &req})
}

// proxyJob answers one simulate or model request: the body decodes
// into req, which job wraps for the routing key, and the backend's
// answer at path, 200 or 304 to the caller's If-None-Match, is relayed.
func (c *Coordinator) proxyJob(w http.ResponseWriter, r *http.Request, path string, req any, job server.SweepJob) {
	if err := server.DecodeJSON(r.Body, req); err != nil {
		writeErr(w, err)
		return
	}
	release, ok := c.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := c.requestCtx(r)
	defer cancel()
	res, err := c.runSingle(ctx, c.currentRing(), job.Key(), path, req, r.Header.Get("If-None-Match"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("ETag", res.etag)
	if res.body == nil {
		w.Header().Set(server.MemoizedHeader, strconv.FormatBool(res.memoized))
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res.body) // the connection is the only failure mode here
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz: the coordinator is ready while at least one backend
// is. warm_keys aggregates the healthy backends' reported warm working
// sets — the cluster's routable warmth.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	warm := c.health.warmKeysTotal()
	if c.health.healthyCount() == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, server.ReadyzResponse{Status: "no healthy backends", WarmKeys: warm})
		return
	}
	server.WriteJSON(w, http.StatusOK, server.ReadyzResponse{Status: "ok", WarmKeys: warm})
}

// BackendStats is one backend's row in the coordinator's /v1/stats.
type BackendStats struct {
	URL string `json:"url"`
	BackendHealth
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	Inflight int64  `json:"inflight"`
	// P95Us is the observed 95th-percentile latency upper bound (µs) —
	// the quantity hedge delays are priced from.
	P95Us   int64                 `json:"p95Us"`
	Latency obs.HistogramSnapshot `json:"latency"`
}

// StatsResponse is the coordinator's /v1/stats body. Schema 2 shapes
// the memo, persist, admission, and partial blocks identically to the
// single-node server's — aggregated across healthy backends — so one
// dashboard works against either tier. The cluster routing block and
// per-backend rows are the coordinator's tier-specific extras, just as
// pool stats are the server's.
type StatsResponse struct {
	Schema  int `json:"schema"`
	Cluster struct {
		Backends     int    `json:"backends"`
		Healthy      int    `json:"healthy"`
		Replicas     int    `json:"replicas"`
		RingPoints   int    `json:"ringPoints"`
		RingModulus  int64  `json:"ringModulus"`
		VirtualNodes int    `json:"virtualNodes"`
		WarmKeys     int    `json:"warmKeys"`
		RingVersion  uint64 `json:"ringVersion"`
	} `json:"cluster"`
	// Memo, Persist, and Partial sum the healthy backends' blocks;
	// backends that fail the (bounded) stats fan-out are skipped rather
	// than failing the whole endpoint.
	Memo    server.MemoBlock    `json:"memo"`
	Persist server.PersistBlock `json:"persist"`
	Partial server.PartialBlock `json:"partial"`
	// Admission is the coordinator's own valve, in front of the
	// backends' per-node admission control.
	Admission server.AdmissionBlock `json:"admission"`
	Requests  uint64                `json:"requests"`
	Hedges    uint64                `json:"hedges"`
	Reroutes  uint64                `json:"reroutes"`
	// Membership counts completed membership changes and the warm-state
	// records they moved.
	Membership struct {
		Joins           uint64 `json:"joins"`
		Leaves          uint64 `json:"leaves"`
		MigratedKeys    uint64 `json:"migratedKeys"`
		MigratedBytes   uint64 `json:"migratedBytes"`
		MigrationErrors uint64 `json:"migrationErrors"`
	} `json:"membership"`
	Backends []BackendStats `json:"backends"`
}

// statsFanoutTimeout bounds the per-backend stats collection behind the
// coordinator's /v1/stats; a slow backend costs at most this much and
// is then reported with zeroed aggregate contribution.
const statsFanoutTimeout = time.Second

// aggregateBackendStats fans /v1/stats out to the healthy backends,
// sums their registry snapshots and builds the schema-2 blocks from the
// sum, the same way a node builds its own.
func (c *Coordinator) aggregateBackendStats(ctx context.Context) server.StatsV2 {
	ctx, cancel := context.WithTimeout(ctx, statsFanoutTimeout)
	defer cancel()
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sum obs.Snapshot
	)
	for _, u := range c.currentRing().Backends() {
		if !c.health.healthy(u) {
			continue
		}
		b := c.backendFor(u)
		if b == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := b.client.Stats(ctx)
			if err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			sum.Add(st.Metrics)
		}()
	}
	wg.Wait()
	return server.StatsBlocks(sum)
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	ring := c.currentRing()
	var resp StatsResponse
	resp.Schema = server.StatsSchemaVersion
	resp.Cluster.Backends = len(ring.Backends())
	resp.Cluster.Healthy = c.health.healthyCount()
	resp.Cluster.Replicas = c.opts.Replicas
	resp.Cluster.RingPoints = ring.Points()
	resp.Cluster.RingModulus = RingModulus
	resp.Cluster.VirtualNodes = ring.VirtualNodes()
	resp.Cluster.WarmKeys = c.health.warmKeysTotal()
	resp.Cluster.RingVersion = c.RingVersion()
	v2 := c.aggregateBackendStats(r.Context())
	resp.Memo, resp.Persist, resp.Partial = v2.Memo, v2.Persist, v2.Partial
	if c.slots != nil {
		resp.Admission.Capacity = cap(c.slots)
		resp.Admission.Queued = int64(len(c.slots))
		resp.Admission.Pressure = float64(resp.Admission.Queued) / float64(resp.Admission.Capacity)
	}
	resp.Admission.Shed = c.shed.Value()
	resp.Requests = c.requests.Value()
	resp.Hedges = c.hedges.Value()
	resp.Reroutes = c.reroutes.Value()
	resp.Membership.Joins = c.joins.Value()
	resp.Membership.Leaves = c.leaves.Value()
	resp.Membership.MigratedKeys = c.migratedKeys.Value()
	resp.Membership.MigratedBytes = c.migratedBytes.Value()
	resp.Membership.MigrationErrors = c.migrationErrors.Value()
	hs := c.health.snapshot()
	for _, u := range ring.Backends() {
		b := c.backendFor(u)
		if b == nil {
			continue
		}
		snap := b.latency.Snapshot()
		resp.Backends = append(resp.Backends, BackendStats{
			URL:           u,
			BackendHealth: hs[u],
			Requests:      b.requests.Value(),
			Failures:      b.failures.Value(),
			Inflight:      b.inflight.Value(),
			P95Us:         snap.QuantileUs(hedgeQuantile),
			Latency:       snap,
		})
	}
	server.SetDeprecationHeaders(w.Header().Set)
	server.WriteJSON(w, http.StatusOK, resp)
}
