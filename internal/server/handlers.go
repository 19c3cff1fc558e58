package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"

	"primecache/internal/obs"
)

// decodeJSON decodes the request body, bounded by the body-size limit,
// into dst.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	return DecodeJSON(http.MaxBytesReader(w, r.Body, s.opts.Limits.MaxBodyBytes), dst)
}

// DecodeJSON strictly decodes body into dst, rejecting unknown fields
// and trailing garbage; the coordinator decodes its requests with it
// too, so both tiers reject a body the same way.
func DecodeJSON(body io.Reader, dst any) error {
	dec := json.NewDecoder(body)
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

// WriteJSON writes v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
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

// computeJob evaluates one job, whose canonical key is key, through the
// two cache tiers and the compute pool: memo hit → cached result; memo
// miss → persist-tier lookup (a disk hit is promoted into the LRU and
// counts as memoized); full miss → compute in a pool slot, then store
// through both tiers.
// Concurrent identical jobs are single-flighted: the first becomes the
// leader and computes, the rest share its result and count as memoized —
// so a sweep repeating one config costs one compute slot, not many.
func (s *Server) computeJob(ctx context.Context, job SweepJob, key string) (result any, memoized bool, err error) {
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
			v, err := s.compute(ctx, job)
			if err == nil && s.persist != nil {
				s.persistStore(ctx, key, v)
			}
			return v, false, err
		}
		s.callMu.Lock()
		c, joined := s.calls[key]
		if !joined && s.memo.Contains(key) {
			// A leader published the value and left between the memo
			// miss above and here; it publishes before it leaves, so
			// the memo holds the value now. Read it through Get.
			s.callMu.Unlock()
			continue
		}
		if !joined {
			c = &inflightCall{done: make(chan struct{})}
			s.calls[key] = c
		}
		s.callMu.Unlock()

		if !joined {
			// Leader: compute, publish to the memo, then release joiners.
			c.val, c.err = s.compute(ctx, job)
			if c.err == nil {
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

// compute runs one job in a pool slot. Simulation panics (a config
// that slipped past validation) surface as errors, not a crashed server.
// A job stopped early by its context surfaces as a PartialError, whose
// completed-reference count feeds the /v1/stats partial-work counters.
func (s *Server) compute(ctx context.Context, job SweepJob) (any, error) {
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
			return runSimulate(ctx, *job.Simulate, &s.shelf)
		case job.Model != nil:
			return runModel(*job.Model)
		default:
			return nil, Errf(CodeInvalidRequest, "empty job")
		}
	})
	var pe *PartialError
	if errors.As(err, &pe) {
		s.ctr.cancelledJobs.Inc()
		s.ctr.partialRefs.Add(pe.Refs)
	}
	return v, err
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	s.serveJob(w, r, &req, SweepJob{Simulate: &req})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	var req ModelRequest
	s.serveJob(w, r, &req, SweepJob{Model: &req})
}

// serveJob answers one simulate or model request: the body decodes into
// req, which job wraps.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, req any, job SweepJob) {
	if err := s.decodeJSON(w, r, req); err != nil {
		WriteError(w, err)
		return
	}
	if err := job.Validate(s.opts.Limits); err != nil {
		WriteError(w, err)
		return
	}
	release, err := s.admitRequest(r.Context())
	if err != nil {
		WriteError(w, err)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	key := job.Key()
	v, memoized, err := s.computeJob(ctx, job, key)
	if err != nil {
		WriteError(w, err)
		return
	}
	s.writeConditional(w, r, key, v, memoized)
}

// handleSweep fans the batch out across the compute slots and streams the
// results back in input order as they complete (see WriteSweep).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		WriteError(w, err)
		return
	}
	if err := req.Validate(s.opts.Limits); err != nil {
		WriteError(w, err)
		return
	}
	// One admission slot covers the whole batch: the compute pool already
	// bounds its parallelism, so the queue tracks requests, not jobs.
	release, err := s.admitRequest(r.Context())
	if err != nil {
		WriteError(w, err)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	// Fan out: one goroutine per job, throughput bounded by the pool.
	// Each job's slot is a single-element channel so the writer below
	// can emit results in input order while later jobs keep computing.
	slots := make([]chan []byte, len(req.Jobs))
	for i := range req.Jobs {
		slots[i] = make(chan []byte, 1)
		go func(i int, job SweepJob) {
			// Per-job span, ended before the result is handed to the
			// writer: once the response is written every job span is in
			// the trace.
			jctx, jspan := obs.Start(ctx, "sweep.job", obs.Int("idx", i))
			res := SweepResult{Index: i}
			v, memoized, err := s.computeJob(jctx, job, job.Key())
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
			slots[i] <- SweepResultLine(res)
		}(i, req.Jobs[i])
	}
	WriteSweep(w, slots, func(i int) []byte { return <-slots[i] })
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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
		WriteJSON(w, http.StatusServiceUnavailable, ReadyzResponse{Status: "draining", Draining: true, WarmKeys: s.WarmKeys()})
		return
	}
	WriteJSON(w, http.StatusOK, ReadyzResponse{Status: "ok", WarmKeys: s.WarmKeys()})
}

// StatsResponse is the /v1/stats body, schema 2: the memo, persist,
// admission, and partial blocks are shaped identically to the
// coordinator's (see StatsV2); pool and metrics are this tier's
// extras. The block shapes are wire-compatible with schema 1 — the
// Deprecation/Sunset headers on the endpoint refer to the un-versioned
// schema-1 layout as a whole.
type StatsResponse struct {
	Schema int `json:"schema"`
	// ResultEpoch is the ResultEpoch this node's answers, and the keys
	// they are stored and tagged under, belong to.
	ResultEpoch int          `json:"resultEpoch"`
	Memo        MemoBlock    `json:"memo"`
	Persist     PersistBlock `json:"persist"`
	Pool        struct {
		Workers int   `json:"workers"`
		Busy    int64 `json:"busy"`
		Queued  int64 `json:"queued"`
	} `json:"pool"`
	// Admission reports the overload valve: capacity, queue occupancy,
	// the shed request count, and occupancy as a fraction of capacity.
	Admission AdmissionBlock `json:"admission"`
	// Partial accounts work burned by jobs that were cancelled or timed
	// out mid-simulation: how many jobs stopped early and how many
	// references they had completed when they stopped.
	Partial PartialBlock `json:"partial"`
	Metrics obs.Snapshot `json:"metrics"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot()
	v2 := StatsBlocks(snap)
	v2.Admission.Pressure = s.admit.pressure()
	resp := StatsResponse{Schema: v2.Schema, ResultEpoch: ResultEpoch, Memo: v2.Memo, Persist: v2.Persist,
		Admission: v2.Admission, Partial: v2.Partial, Metrics: snap}
	resp.Pool.Workers = s.pool.size()
	resp.Pool.Busy = snap.Gauges["pool.busy"]
	resp.Pool.Queued = snap.Gauges["pool.queued"]
	SetDeprecationHeaders(w.Header().Set)
	WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, s.metrics.Families("vcached_")); err != nil {
		WriteError(w, Errf(CodeInternal, "rendering metrics: %v", err))
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(buf.Bytes())
}
