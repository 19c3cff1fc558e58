package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"

	"primecache/internal/obs"
)

// decodeJSON strictly decodes the request body into dst, rejecting
// unknown fields and trailing garbage.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.Limits.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return Errf(CodeJobTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		}
		return Errf(CodeInvalidRequest, "decoding request: %v", err)
	}
	if dec.More() {
		return Errf(CodeInvalidRequest, "trailing data after JSON body")
	}
	return nil
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection is the only failure mode here
}

// inflightCall is one in-progress computation concurrent identical jobs
// attach to: done is closed after val/err are set.
type inflightCall struct {
	done chan struct{}
	val  any
	err  error
}

// computeJob evaluates one job through the two cache tiers and the
// worker pool: memo hit → cached result; memo miss → persist-tier
// lookup (a disk hit is promoted into the LRU and counts as memoized);
// full miss → compute on a pool worker, then store through both tiers.
// Concurrent identical jobs are single-flighted: the first becomes the
// leader and computes, the rest share its result and count as memoized —
// so a sweep repeating one config costs one worker slot, not many.
func (s *Server) computeJob(ctx context.Context, job SweepJob, degrade bool) (result any, memoized bool, err error) {
	key := job.Key()
	for {
		_, mspan := obs.Start(ctx, "memo.lookup")
		v, hit := s.memo.Get(key)
		mspan.SetAttr("hit", strconv.FormatBool(hit))
		mspan.End()
		if hit {
			return v, true, nil
		}
		if s.persist != nil {
			if v, ok := s.persistLookup(ctx, key); ok {
				return v, true, nil
			}
		}
		if !s.memo.Enabled() {
			v, err := s.compute(ctx, job, degrade)
			if err == nil && !isDegraded(v) && s.persist != nil {
				s.persistStore(ctx, key, v)
			}
			return v, false, err
		}
		s.callMu.Lock()
		c, joined := s.calls[key]
		if !joined {
			c = &inflightCall{done: make(chan struct{})}
			s.calls[key] = c
		}
		s.callMu.Unlock()

		if !joined {
			// Leader: compute, publish to the memo, then release joiners.
			// Degraded results stay out of the memo: their stats are
			// guard-verified but the degraded flag describes this
			// request's pressure, not a later request's.
			c.val, c.err = s.compute(ctx, job, degrade)
			if c.err == nil && !isDegraded(c.val) {
				s.memo.Put(key, c.val)
				if s.persist != nil {
					s.persistStore(ctx, key, c.val)
				}
			}
			s.callMu.Lock()
			delete(s.calls, key)
			s.callMu.Unlock()
			close(c.done)
			return c.val, false, c.err
		}

		_, jspan := obs.Start(ctx, "singleflight.join")
		select {
		case <-c.done:
			jspan.End()
		case <-ctx.Done():
			jspan.End()
			return nil, false, ctx.Err()
		}
		if c.err != nil {
			// The leader failed on its own terms — its deadline, its
			// cancelled client, or the shutdown race. That verdict does
			// not apply to this request, so retry (likely as leader).
			if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) || errors.Is(c.err, ErrPoolClosed) {
				continue
			}
			return nil, false, c.err
		}
		// Re-read through the memo so the hit shows up in its counters.
		if v, ok := s.memo.Get(key); ok {
			return v, true, nil
		}
		return c.val, true, nil
	}
}

// isDegraded reports whether a computed value carries the degraded flag.
func isDegraded(v any) bool {
	sr, ok := v.(*SimulateResponse)
	return ok && sr.Degraded
}

// compute runs one job on a pool worker. Simulation panics (a config
// that slipped past validation) surface as errors, not a crashed worker.
// A job stopped early by its context surfaces as a PartialError, whose
// completed-reference count feeds the /v1/stats partial-work counters.
func (s *Server) compute(ctx context.Context, job SweepJob, degrade bool) (any, error) {
	v, err := s.pool.Submit(ctx, func(ctx context.Context) (out any, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("server: job panicked: %v\n%s", p, debug.Stack())
			}
		}()
		if s.opts.Faults != nil {
			f := s.opts.Faults("compute", s.computeSeq.Add(1))
			if err := sleepFault(ctx, s.clock, f.Latency); err != nil {
				return nil, err
			}
			if f.Err != nil {
				return nil, f.Err
			}
		}
		switch {
		case job.Simulate != nil:
			resp, err := runSimulate(ctx, *job.Simulate, evalOpts{degrade: degrade})
			if err == nil && resp.Degraded {
				s.metrics.Counter("admission.degraded").Inc()
			}
			return resp, err
		case job.Model != nil:
			return runModel(*job.Model)
		default:
			return nil, Errf(CodeInvalidRequest, "empty job")
		}
	})
	var pe *PartialError
	if errors.As(err, &pe) {
		s.metrics.Counter("compute.cancelledJobs").Inc()
		s.metrics.Counter("compute.partialRefs").Add(pe.Refs)
	}
	return v, err
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := req.Validate(s.opts.Limits); err != nil {
		writeError(w, err)
		return
	}
	release, err := s.admitRequest(r.Context(), "simulate")
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	v, memoized, err := s.computeJob(ctx, SweepJob{Simulate: &req}, s.degradeNow())
	if err != nil {
		writeError(w, err)
		return
	}
	resp := v.(*SimulateResponse)
	s.writeConditional(w, r, SweepJob{Simulate: &req}.Key(), resp, memoized, struct {
		*SimulateResponse
		Memoized bool `json:"memoized"`
	}{resp, memoized})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	var req ModelRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := req.Validate(s.opts.Limits); err != nil {
		writeError(w, err)
		return
	}
	release, err := s.admitRequest(r.Context(), "model")
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	v, memoized, err := s.computeJob(ctx, SweepJob{Model: &req}, false)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := v.(*ModelResponse)
	s.writeConditional(w, r, SweepJob{Model: &req}.Key(), resp, memoized, struct {
		*ModelResponse
		Memoized bool `json:"memoized"`
	}{resp, memoized})
}

// handleSweep fans the batch out across the worker pool and streams the
// results back in input order as they complete.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := req.Validate(s.opts.Limits); err != nil {
		writeError(w, err)
		return
	}
	// One admission slot covers the whole batch: the worker pool already
	// bounds its parallelism, so the queue tracks requests, not jobs.
	release, err := s.admitRequest(r.Context(), "sweep")
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	degrade := s.degradeNow()

	// Fan out: one goroutine per job, throughput bounded by the pool.
	// Each job's slot is a single-element channel so the writer below
	// can emit results in input order while later jobs keep computing.
	slots := make([]chan SweepResult, len(req.Jobs))
	for i := range req.Jobs {
		slots[i] = make(chan SweepResult, 1)
		go func(i int, job SweepJob) {
			// Per-job span, ended before the result is handed to the
			// writer: once the response is written every job span is in
			// the trace.
			jctx, jspan := obs.Start(ctx, "sweep.job", obs.Int("idx", i))
			res := SweepResult{Index: i}
			v, memoized, err := s.computeJob(jctx, job, degrade)
			if err != nil {
				ae := asAPIError(err)
				res.Error = ae.Message
				res.ErrorCode = ae.Code
			} else {
				res.Memoized = memoized
				switch t := v.(type) {
				case *SimulateResponse:
					res.Simulate = t
				case *ModelResponse:
					res.Model = t
				}
			}
			jspan.End()
			slots[i] <- res
		}(i, req.Jobs[i])
	}

	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)
	if _, err := fmt.Fprint(w, "{\"results\":[\n"); err != nil {
		return
	}
	enc := json.NewEncoder(w)
	for i := range slots {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		if err := enc.Encode(<-slots[i]); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	fmt.Fprint(w, "]}\n")
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyzResponse is the /v1/readyz body: readiness, as opposed to the
// pure liveness of /v1/healthz. A draining server is alive but not
// ready — load balancers and the cluster health checker route away from
// it while its in-flight work finishes. WarmKeys reports how many job
// keys this server answers without pool work (memo entries, or persist
// keys when the disk tier is larger); the coordinator prefers warmer
// replicas when re-scattering around a failure.
type ReadyzResponse struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	WarmKeys int    `json:"warm_keys"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, ReadyzResponse{Status: "draining", Draining: true, WarmKeys: s.WarmKeys()})
		return
	}
	writeJSON(w, http.StatusOK, ReadyzResponse{Status: "ok", WarmKeys: s.WarmKeys()})
}

// StatsResponse is the /v1/stats body, schema 2: the memo, persist,
// admission, and partial blocks are shaped identically to the
// coordinator's (see StatsV2); pool and metrics are this tier's
// extras. The block shapes are wire-compatible with schema 1 — the
// Deprecation/Sunset headers on the endpoint refer to the un-versioned
// schema-1 layout as a whole.
type StatsResponse struct {
	Schema  int          `json:"schema"`
	Memo    MemoBlock    `json:"memo"`
	Persist PersistBlock `json:"persist"`
	Pool    struct {
		Workers int   `json:"workers"`
		Busy    int64 `json:"busy"`
		Queued  int64 `json:"queued"`
	} `json:"pool"`
	// Admission reports the overload valve: queue occupancy, capacity,
	// shed and degraded request counts, and the pressure fraction the
	// degradation threshold is compared against.
	Admission AdmissionBlock `json:"admission"`
	// Partial accounts work burned by jobs that were cancelled or timed
	// out mid-simulation: how many jobs stopped early and how many
	// references they had completed when they stopped.
	Partial PartialBlock    `json:"partial"`
	Metrics MetricsSnapshot `json:"metrics"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var resp StatsResponse
	resp.Schema = StatsSchemaVersion
	resp.Memo = memoBlock(s.memo.Stats())
	resp.Persist = persistBlock(s.persist)
	resp.Pool.Workers = s.pool.Size()
	resp.Pool.Busy = s.metrics.Gauge("pool.busy").Value()
	resp.Pool.Queued = s.metrics.Gauge("pool.queued").Value()
	resp.Admission.Capacity = s.admit.capacity()
	resp.Admission.Queued = s.metrics.Gauge("admission.queued").Value()
	resp.Admission.Shed = s.metrics.Counter("admission.shed").Value()
	resp.Admission.Degraded = s.metrics.Counter("admission.degraded").Value()
	resp.Admission.Pressure = s.admit.pressure()
	resp.Partial.CancelledJobs = s.metrics.Counter("compute.cancelledJobs").Value()
	resp.Partial.RefsCompleted = s.metrics.Counter("compute.partialRefs").Value()
	resp.Metrics = s.metrics.Snapshot()
	SetDeprecationHeaders(w.Header().Set)
	writeJSON(w, http.StatusOK, resp)
}
