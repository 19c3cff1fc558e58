package server

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"primecache/internal/obs"
	"primecache/internal/persist"
	"primecache/internal/sim"
)

// Options configures a Server. The zero value is usable: GOMAXPROCS
// workers, a 4096-entry memoizer, a 30-second per-request compute
// timeout, default Limits, and a 256-slot admission backlog.
type Options struct {
	// Workers is the compute-slot limit, the number of jobs that run
	// at once; <= 0 selects GOMAXPROCS.
	Workers int
	// MemoEntries caps the memoization LRU; < 0 disables memoization,
	// 0 selects the default (4096).
	MemoEntries int
	// RequestTimeout bounds the compute time of one simulate/model job
	// and of every job in a sweep; 0 selects 30s, < 0 disables.
	RequestTimeout time.Duration
	// Limits bounds what one request may ask for (references per job,
	// sweep batch size, body bytes); zero fields select defaults.
	Limits Limits
	// QueueDepth is the admission backlog beyond the compute slots: at
	// most Workers+QueueDepth compute requests are in the building at
	// once, the rest are shed with 429. 0 selects 256; < 0 selects no
	// backlog (capacity = the compute-slot count).
	QueueDepth int
	// Faults injects deterministic latency/error/queue-full faults into
	// the admit and compute stages. Tests only; nil in production.
	Faults FaultFunc
	// Clock is the time source behind latency histograms, uptime, and
	// fault sleeps; nil selects the real clock. Simulation tests inject
	// a sim.Virtual clock and advance it explicitly.
	Clock sim.Clock
	// Persist, when non-nil, is the disk-backed second-level memo tier:
	// memo misses fall through to it (promoting hits back into the LRU),
	// computed results are stored through, and a graceful Shutdown syncs
	// and snapshots it so the next process starts warm. The server owns
	// the store's lifecycle from here on: Shutdown closes it cleanly,
	// Close kills it (crash semantics).
	Persist *persist.Store
	// Tracer, when non-nil, records a span tree per compute request:
	// an edge span at the handler (stitched to the caller's trace when
	// the X-Vcache-Trace header is present) with children around
	// admission, memo lookup, queue wait, and evaluation. Finished
	// traces are served at /v1/debug/traces. Nil disables tracing; the
	// instrumented paths become no-ops.
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.MemoEntries == 0 {
		o.MemoEntries = 4096
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	o.Limits = o.Limits.withDefaults()
	switch {
	case o.QueueDepth == 0:
		o.QueueDepth = 256
	case o.QueueDepth < 0:
		o.QueueDepth = 0
	}
	return o
}

// Server is the vcached service: handlers over a shared compute pool,
// memoizer, and metrics registry. Create with New, expose via Handler,
// and stop with Shutdown (drains in-flight requests) or Close.
type Server struct {
	opts    Options
	clock   sim.Clock
	tracer  *obs.Tracer
	metrics *obs.Registry
	memo    *Memo
	persist *persist.Store
	pool    *pool
	admit   *admission
	mux     *http.ServeMux
	httpSrv *http.Server

	// Fault-injection sequence numbers, one per stage, so a FaultFunc
	// sees a deterministic 1-based ordinal regardless of concurrency.
	admitSeq   atomic.Uint64
	computeSeq atomic.Uint64

	// Counters the request paths bump, resolved once at New.
	ctr serverCounters

	// Single-flight bookkeeping: concurrent identical jobs (the common
	// case inside one sweep) share one in-flight computation instead of
	// all missing the memo and computing redundantly.
	callMu sync.Mutex
	calls  map[string]*inflightCall

	// Idle simulators, lent to the next job with the same cache spec.
	shelf simShelf

	// Graceful-shutdown bookkeeping: handlers register with inflightWG
	// under the read lock; Shutdown flips closing under the write lock
	// and then waits, so the pool only closes after every in-flight
	// request has written its response. This works no matter which
	// http.Server fronts the handler (cmd/vcached, httptest, embedding).
	drainMu  sync.RWMutex
	closing  bool
	inflight sync.WaitGroup
}

// New builds a Server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	clk := sim.Or(opts.Clock)
	m := obs.NewRegistry(clk)
	s := &Server{
		opts:    opts,
		clock:   clk,
		tracer:  opts.Tracer,
		metrics: m,
		memo:    NewMemo(opts.MemoEntries),
		persist: opts.Persist,
		pool:    newPool(opts.Workers, m, clk),
		mux:     http.NewServeMux(),
		calls:   map[string]*inflightCall{},
	}
	s.admit = newAdmission(s.pool.size()+opts.QueueDepth, m)
	s.registerMetrics()
	s.mux.Handle("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	s.mux.Handle("POST /v1/model", s.instrument("model", s.handleModel))
	s.mux.Handle("POST /v1/sweep", s.instrument("sweep", s.handleSweep))
	// Liveness and readiness stay answerable while the server drains:
	// external load balancers and the cluster health checker poll them to
	// decide when to stop routing, which only works if a draining server
	// still says so instead of refusing the probe.
	s.mux.Handle("GET /v1/healthz", s.instrumentLive("healthz", s.handleHealthz))
	s.mux.Handle("GET /v1/readyz", s.instrumentLive("readyz", s.handleReadyz))
	s.mux.Handle("GET /v1/stats", s.instrument("stats", s.handleStats))
	// Scrapes and trace pulls are observability plumbing, not compute:
	// like the probes they stay answerable during a drain, and they are
	// not themselves traced (a scraper polling every few seconds would
	// churn the ring with single-span traces).
	s.mux.Handle("GET /metrics", s.instrumentLive("metrics", s.handleMetrics))
	s.mux.Handle("GET /v1/debug/traces", s.instrumentLive("traces", s.tracer.TracesHandler()))
	// Warm-state migration only exists where there is durable state to
	// move: memory-only servers answer 404 on these paths, and their
	// metric families never mention the migration counters.
	if s.persist != nil {
		s.mux.Handle("GET /v1/persist/export", s.instrument("persistExport", s.handlePersistExport))
		s.mux.Handle("POST /v1/persist/import", s.instrument("persistImport", s.handlePersistImport))
	}
	s.httpSrv = &http.Server{Handler: s.mux}
	return s
}

// Handler returns the service's HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the registry (for tests and embedding).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Tracer returns the server's tracer, nil when tracing is disabled.
// Cluster tests use it to read a backend's finished-trace ring directly
// instead of over HTTP.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Persist returns the disk tier, nil when the server runs memory-only.
func (s *Server) Persist() *persist.Store { return s.persist }

// WarmKeys reports how many job keys this server can answer without
// pool work: the larger of the memo's resident entries and the persist
// tier's live keys (the disk tier survives restarts, so after a reboot
// it is what makes the server warm). Surfaced in /v1/readyz for the
// coordinator's warm-replica failover preference.
func (s *Server) WarmKeys() int {
	warm := s.memo.Len()
	if s.persist != nil {
		if k := s.persist.Keys(); k > warm {
			warm = k
		}
	}
	return warm
}

// Serve accepts connections on l until Shutdown or Close. It always
// returns a non-nil error; after Shutdown it returns http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	return s.httpSrv.Serve(l)
}

// BeginDrain flips the server to draining without touching the
// listener: /v1/readyz starts answering 503 {"draining":true}, new
// compute requests get the shutting_down envelope, and /v1/healthz
// keeps reporting ok. Call it a readiness-probe interval or so before
// Shutdown so load balancers and cluster coordinators observe the
// transition while the listener still accepts connections (Shutdown
// closes it immediately). Idempotent; Shutdown implies it.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	s.closing = true
	s.drainMu.Unlock()
}

// Shutdown stops listening, waits (up to ctx) for in-flight requests to
// complete, then closes the compute pool. In-flight sweeps drain: their
// responses are written before the listener closes and before the pool
// refuses work. New requests arriving during the drain get a structured 503.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()

	err := s.httpSrv.Shutdown(ctx)

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	s.pool.Close()
	// With every request drained, the disk tier's log is final: fsync
	// and write the index snapshot so the next open restores warm
	// without a scan.
	if s.persist != nil {
		if perr := s.persist.Close(); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// Close stops the server without draining. The persist tier is killed,
// not closed: no fsync, no snapshot — the same disk state a crash
// leaves behind, so recovery always goes through the scan path.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	s.pool.Close()
	if s.persist != nil {
		s.persist.Kill()
	}
	return err
}

// admitRequest runs the fault hook and the admission valve for one
// compute request. On success the returned release must be called once
// the response is written; on overload it returns the 429 envelope.
func (s *Server) admitRequest(ctx context.Context) (func(), error) {
	_, span := obs.Start(ctx, "admit")
	defer span.End()
	if s.opts.Faults != nil {
		f := s.opts.Faults("admit", s.admitSeq.Add(1))
		if f.Latency > 0 {
			s.clock.Sleep(f.Latency)
		}
		if f.Err != nil {
			return nil, f.Err
		}
		if f.QueueFull {
			s.admit.shed.Inc()
			span.SetAttr("shed", "true")
			return nil, s.overloadedError()
		}
	}
	release, ok := s.admit.tryAdmit()
	if !ok {
		span.SetAttr("shed", "true")
		return nil, s.overloadedError()
	}
	return release, nil
}

// overloadedError builds the shed envelope: code overloaded plus a
// Retry-After hint priced from the queue depth and the pool's mean
// observed compute latency.
func (s *Server) overloadedError() *APIError {
	depth := s.admit.depth()
	mean := s.metrics.Histogram("latency.pool").Snapshot().MeanUs
	ae := Errf(CodeOverloaded, "admission queue full (%d of %d slots in use)", depth, s.admit.capacity())
	ae.RetryAfterMs = retryAfterHint(depth, s.pool.size(), mean)
	return ae
}

// Draining reports whether Shutdown has begun: the server still answers
// probes (and drains in-flight work) but admits no new compute.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.closing
}

// requestCtx applies the per-request compute timeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
}

// instrument wraps a handler with request/error counters, an in-flight
// gauge, and a latency histogram, all surfaced by /v1/stats. Once
// shutdown begins the wrapped handler refuses with a structured 503.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	return s.wrap(name, h, false)
}

// instrumentLive is instrument for probe endpoints: the handler keeps
// answering during the drain (it never joins the in-flight WaitGroup, so
// a probe arriving after Shutdown started cannot race the drain wait).
func (s *Server) instrumentLive(name string, h http.HandlerFunc) http.Handler {
	return s.wrap(name, h, true)
}

func (s *Server) wrap(name string, h http.HandlerFunc, live bool) http.Handler {
	requests := s.metrics.Counter("requests." + name)
	errors := s.metrics.Counter("errors." + name)
	latency := s.metrics.Histogram("latency." + name)
	inflight := s.metrics.Gauge("inflight")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !live {
			s.drainMu.RLock()
			if s.closing {
				s.drainMu.RUnlock()
				errors.Inc()
				WriteError(w, ErrPoolClosed)
				return
			}
			s.inflight.Add(1)
			s.drainMu.RUnlock()
			defer s.inflight.Done()
		}

		// Edge span: the local root of this request's trace. A propagated
		// header stitches it under the caller's span; otherwise a fresh
		// trace starts here. Probe/scrape handlers (live) are not traced.
		var span *obs.Span
		if s.tracer != nil && !live {
			ctx := r.Context()
			if tid, sid, ok := obs.ParseHeader(r.Header.Get(obs.Header)); ok {
				ctx, span = s.tracer.StartRemoteSpan(ctx, name, tid, sid)
			} else {
				ctx, span = s.tracer.StartSpan(ctx, name)
			}
			r = r.WithContext(ctx)
		}

		requests.Inc()
		inflight.Inc()
		start := s.clock.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if span != nil {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			span.SetAttr("status", strconv.Itoa(status))
			// End (and so publish) before the gauges tick down: when the
			// chaos harness observes a quiesced server, every admitted
			// request's trace is already in the ring.
			span.End()
		}
		latency.Observe(s.clock.Since(start))
		inflight.Dec()
		if sw.status >= 400 {
			errors.Inc()
		}
	})
}

// statusWriter records the status code for error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards flushes so sweep streaming works through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
