// Command vcached is the long-running simulation service: it serves
// cache simulations and VCM analytic-model evaluations over HTTP/JSON,
// with a compute-slot limit bounding concurrent jobs, an LRU memoizer
// deduplicating repeated configurations, an admission valve shedding
// load beyond a bounded backlog, and a metrics endpoint.
//
//	vcached -addr :8372
//
// Endpoints:
//
//	POST /v1/simulate  {"cache":{"kind":"prime","c":13},
//	                    "pattern":{"name":"strided","stride":512,"n":4096},
//	                    "passes":4}
//	POST /v1/model     {"banks":64,"tm":64,"b":4096}
//	POST /v1/sweep     {"jobs":[{"model":{...}},{"simulate":{...}}, ...]}
//	GET  /v1/healthz   liveness: 200 while the process serves
//	GET  /v1/readyz    readiness: 503 {"draining":true} once shutdown begins
//	GET  /v1/stats
//	GET  /metrics          Prometheus text exposition
//	GET  /v1/debug/traces  finished request traces (ring buffer; 404 with -trace-ring=0)
//
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/, kept off the service port so profiling endpoints are
// never reachable from the service's own network exposure.
//
// SIGINT/SIGTERM trigger a graceful shutdown: readiness fails first
// (for -drain-grace, while the listener still accepts), then in-flight
// requests drain (bounded by -drain) before the process exits.
//
// With -coordinator, vcached instead fronts a set of backend instances
// as a cluster coordinator: jobs are routed by canonical key over a
// consistent-hash ring, sweeps scatter across healthy backends and
// gather in input order, and a health checker plus per-job failover
// route around dead or draining backends:
//
//	vcached -addr :8370 -coordinator -backends=http://h1:8372,http://h2:8372,http://h3:8372
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"primecache/internal/cluster"
	"primecache/internal/obs"
	"primecache/internal/persist"
	"primecache/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":8372", "listen address (port 0 picks a free port, logged at startup)")
		workers = flag.Int("workers", 0, "compute slots: how many jobs run at once (0 = GOMAXPROCS)")
		memo    = flag.Int("memo", 4096, "memoization cache entries (negative disables)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request compute timeout (0 disables)")
		drain   = flag.Duration("drain", time.Minute, "graceful-shutdown drain limit")
		grace   = flag.Duration("drain-grace", time.Second, "readiness grace: how long /v1/readyz reports draining before the listener closes (0 disables)")

		maxRefs = flag.Int("max-refs", 0, "max references one simulate job may issue (0 = default 64Mi)")
		maxJobs = flag.Int("max-sweep-jobs", 0, "max jobs in one sweep batch (0 = default 4096)")
		maxBody = flag.Int64("max-body", 0, "max request body bytes (0 = default 8MiB)")
		queue   = flag.Int("queue", 0, "admission backlog beyond the compute slots; excess requests get 429 (0 = default 256, negative = none)")

		persistDir      = flag.String("persist-dir", "", "directory for the disk-backed memo tier; restarts start warm from it (empty disables persistence)")
		persistMaxBytes = flag.Int64("persist-max-bytes", 0, "disk budget for the persist log; oldest segments are dropped beyond it (0 = default 256MiB, negative = unbounded)")

		debugAddr  = flag.String("debug-addr", "", "listen address for the pprof debug server (empty disables)")
		traceRing  = flag.Int("trace-ring", 256, "finished-trace ring capacity served at /v1/debug/traces (0 disables tracing)")
		traceEvery = flag.Int("trace-log-every", 0, "log every Nth finished trace as a structured line (0 disables trace logging)")

		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator over -backends instead of computing locally")
		backends    = flag.String("backends", "", "comma-separated backend base URLs (coordinator mode)")
		replicas    = flag.Int("replicas", 0, "distinct backends a job may be tried on, primary + failovers (0 = default 2)")
		probeEvery  = flag.Duration("probe-interval", 0, "backend readiness-probe period (0 = default 2s, negative disables)")
		probeLimit  = flag.Duration("probe-timeout", 0, "per-probe readiness timeout (0 = default 1s)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "floor on the hedge delay for single jobs (0 = default 50ms, negative disables hedging)")
		maxInflight = flag.Int("coordinator-inflight", 0, "coordinator admission capacity (0 = default 256, negative = unbounded)")
		adminToken  = flag.String("admin-token", "", "bearer token enabling the coordinator's /v1/admin membership API (empty keeps it off)")
	)
	flag.Parse()

	startDebugServer(*debugAddr)

	if *coordinator {
		runCoordinator(*addr, *backends, *replicas, *probeEvery, *probeLimit, *hedgeAfter, *maxInflight, *drain,
			*adminToken, newTracer("coordinator", *traceRing, *traceEvery))
		return
	}

	reqTimeout := *timeout
	if reqTimeout == 0 {
		reqTimeout = -1 // Options treats 0 as "default"; <0 disables
	}
	var store *persist.Store
	if *persistDir != "" {
		var err error
		store, err = persist.Open(persist.Options{Dir: *persistDir, MaxBytes: *persistMaxBytes})
		if err != nil {
			log.Fatalf("vcached: opening persist dir: %v", err)
		}
		st := store.Stats()
		log.Printf("vcached persist tier open: %d warm keys, %d segments, %d bytes (snapshot=%v torn=%d corrupt=%d)",
			st.Keys, st.Segments, st.DiskBytes, st.SnapshotRestore, st.TornTruncations, st.CorruptRecords)
	}
	srv := server.New(server.Options{
		Workers:        *workers,
		MemoEntries:    *memo,
		RequestTimeout: reqTimeout,
		Limits: server.Limits{
			MaxRefsPerJob: *maxRefs,
			MaxSweepJobs:  *maxJobs,
			MaxBodyBytes:  *maxBody,
		},
		QueueDepth: *queue,
		Persist:    store,
		Tracer:     newTracer("vcached", *traceRing, *traceEvery),
	})

	// Listen before forking the serve goroutine so -addr :0 logs the port
	// actually bound — tooling (and the integration test) parses this line.
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("vcached: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	log.Printf("vcached listening on %s (workers=%d memo=%d timeout=%v queue=%d)",
		l.Addr(), *workers, *memo, *timeout, *queue)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("vcached: %v", err)
		}
	case <-ctx.Done():
		stop()
		log.Printf("vcached: signal received, draining (limit %v)", *drain)
		if *grace > 0 {
			// Fail readiness while the listener still accepts, so
			// probes see the 503 {"draining":true} transition before
			// Shutdown closes the port out from under them.
			srv.BeginDrain()
			time.Sleep(*grace)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "vcached: shutdown:", err)
			os.Exit(1)
		}
		log.Print("vcached: drained, bye")
	}
}

// newTracer builds the process tracer from the -trace-* flags, nil
// when tracing is disabled. The origin names this process in stitched
// multi-process traces; hostname is appended when available so two
// cluster members stay distinguishable.
func newTracer(role string, ring, logEvery int) *obs.Tracer {
	if ring <= 0 {
		return nil
	}
	origin := role
	if host, err := os.Hostname(); err == nil && host != "" {
		origin = role + "@" + host
	}
	var logger *slog.Logger
	if logEvery > 0 {
		logger = slog.Default()
	}
	return obs.NewTracer(obs.TracerOptions{
		Origin:      origin,
		Capacity:    ring,
		Logger:      logger,
		SampleEvery: logEvery,
	})
}

// startDebugServer serves net/http/pprof on its own listener and mux —
// never the service mux, so profiling is only reachable on the
// (typically loopback-bound) debug address. No-op when addr is empty.
func startDebugServer(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("vcached: debug listener: %v", err)
	}
	log.Printf("vcached debug server (pprof) listening on %s", l.Addr())
	go func() {
		if err := http.Serve(l, mux); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("vcached: debug server: %v", err)
		}
	}()
}

// runCoordinator is the -coordinator mode: serve the cluster
// coordinator over the given backends until a signal arrives.
func runCoordinator(addr, backendList string, replicas int, probeEvery, probeLimit, hedgeAfter time.Duration, maxInflight int, drain time.Duration, adminToken string, tracer *obs.Tracer) {
	var urls []string
	for _, b := range strings.Split(backendList, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		log.Fatal("vcached: -coordinator requires -backends=url1,url2,...")
	}
	coord, err := cluster.New(cluster.Options{
		Backends:      urls,
		Replicas:      replicas,
		ProbeInterval: probeEvery,
		ProbeTimeout:  probeLimit,
		HedgeAfter:    hedgeAfter,
		MaxInflight:   maxInflight,
		AdminToken:    adminToken,
		Tracer:        tracer,
	})
	if err != nil {
		log.Fatalf("vcached: %v", err)
	}
	defer coord.Close()

	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("vcached: %v", err)
	}
	httpSrv := &http.Server{Handler: coord.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(l) }()
	log.Printf("vcached coordinator listening on %s (backends=%d replicas=%d)", l.Addr(), len(urls), replicas)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("vcached: %v", err)
		}
	case <-ctx.Done():
		stop()
		log.Printf("vcached coordinator: signal received, draining (limit %v)", drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "vcached: shutdown:", err)
			os.Exit(1)
		}
		log.Print("vcached coordinator: drained, bye")
	}
}
