package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"primecache/internal/obs"
	"primecache/internal/server"
)

// routedJob is one sweep job with its global index and routing key.
type routedJob struct {
	idx int
	job server.SweepJob
	key string
}

// handleSweep scatters the batch across the ring and gathers results
// back in input order, streaming each result as soon as it (and every
// earlier one) is ready — the same wire shape, ordering, and flush
// behaviour as a single node's /v1/sweep, so a client cannot tell a
// cluster from one big backend by looking at the bytes.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req server.SweepRequest
	if err := server.DecodeJSON(r.Body, &req); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Jobs) == 0 {
		writeErr(w, server.Errf(server.CodeInvalidRequest, "server: sweep has no jobs"))
		return
	}
	release, ok := c.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := c.requestCtx(r)
	defer cancel()

	jobs := make([]routedJob, len(req.Jobs))
	slots := make([]chan []byte, len(req.Jobs))
	for i, j := range req.Jobs {
		jobs[i] = routedJob{idx: i, job: j, key: j.Key()}
		slots[i] = make(chan []byte, 1)
	}
	// Each slot takes one result. A second delivery for an index would be
	// a failover bug; dropping it keeps the leg that sent it from
	// blocking forever on a full slot.
	filled := make([]atomic.Bool, len(req.Jobs))
	deliver := func(idx int, line []byte) {
		if !filled[idx].Swap(true) {
			slots[idx] <- line
		}
	}
	// The ring is captured once: every leg of this sweep — including
	// failover re-scatters — routes on the ring the request arrived on,
	// even if a membership change swaps the ring mid-flight.
	scattered := make(chan struct{})
	go func() {
		defer close(scattered)
		c.scatter(ctx, c.currentRing(), jobs, nil, deliver)
	}()
	server.WriteSweep(w, slots, func(i int) []byte { return c.gatherSlot(ctx, slots[i], i) })
	// A leg hands over its last result before it has read the end of the
	// backend's body. Waiting for every leg keeps ctx alive until they
	// finish and ends each leg's span inside this request's trace.
	<-scattered
}

// lostJobGrace is how long the gather loop waits past the request
// context's end for a straggler delivery before declaring the slot
// lost. Scatter normally delivers every slot exactly once (cancelled
// jobs arrive as timeout/cancelled envelopes), so this only fires on a
// failover bug — it turns a would-be hung response into a typed
// invariant violation the chaos harness can detect.
const lostJobGrace = 500 * time.Millisecond

// gatherSlot waits for job i's result. After the request context ends
// it allows a short grace for the error envelope already in flight,
// then gives up with an internal "result lost" envelope rather than
// blocking the whole response forever.
func (c *Coordinator) gatherSlot(ctx context.Context, slot <-chan []byte, i int) []byte {
	select {
	case res := <-slot:
		return res
	case <-ctx.Done():
	}
	t := c.clock.NewTimer(lostJobGrace)
	defer t.Stop()
	select {
	case res := <-slot:
		return res
	case <-t.C:
		return errorLine(i, server.Errf(server.CodeInternal,
			"cluster: job %d result lost (scatter never delivered it)", i))
	}
}

// scatter partitions jobs by each key's first viable replica (excluded
// backends removed) and runs one sub-sweep per backend concurrently.
// Failed groups recurse with the failed backend excluded, so a job is
// tried on every replica before its slot is filled with an error
// envelope; each job is delivered exactly once.
func (c *Coordinator) scatter(ctx context.Context, ring *Ring, jobs []routedJob, excluded map[string]bool, deliver func(idx int, line []byte)) {
	groups := make(map[*backendState][]routedJob)
	for _, j := range jobs {
		cands := c.candidates(ring, j.key, excluded)
		if len(cands) == 0 {
			deliver(j.idx, errorLine(j.idx, server.Errf(server.CodeUnavailable,
				"cluster: no backend available for job (tried %d replicas)", len(excluded))))
			continue
		}
		groups[cands[0]] = append(groups[cands[0]], j)
	}
	var wg sync.WaitGroup
	for b, group := range groups {
		wg.Add(1)
		go func(b *backendState, group []routedJob) {
			defer wg.Done()
			c.subSweep(ctx, ring, b, group, excluded, deliver)
		}(b, group)
	}
	wg.Wait()
}

// subSweep runs one backend's share of the batch, relaying each result
// as its line arrives: a result is forwarded as the backend's bytes
// with only its index rewritten, and a per-job temporary error code is
// re-scattered. When the leg fails, only the jobs whose results had not
// arrived yet are re-scattered (or, for a permanent failure, answered
// with its envelope); results already relayed stand.
func (c *Coordinator) subSweep(ctx context.Context, ring *Ring, b *backendState, group []routedJob, excluded map[string]bool, deliver func(idx int, line []byte)) {
	sub := server.SweepRequest{Jobs: make([]server.SweepJob, len(group))}
	for i, j := range group {
		sub.Jobs[i] = j.job
	}
	// One span per scatter leg. attempt counts the exclusion depth, so a
	// rescattered group shows up as a deeper leg with the same trace ID —
	// the failover hop stays inside one trace. The leg's context carries
	// the span into the client call, whose header stitches the backend's
	// whole server-side tree underneath it.
	lctx, span := obs.Start(ctx, "sweep.leg",
		obs.String("backend", b.url), obs.Int("jobs", len(group)), obs.Int("attempt", len(excluded)))
	received := 0 // results read so far; the reader checks they arrive in order
	var retry []routedJob
	err := c.callBackend(b, func() error {
		err := b.client.SweepRaw(lctx, sub, func(l server.SweepLine) error {
			if received == len(group) {
				return fmt.Errorf("cluster: backend %s returned more than %d results", b.url, len(group))
			}
			j := group[received]
			received++
			if isTemporaryCode(l.ErrorCode) && ctx.Err() == nil {
				retry = append(retry, j)
				return nil
			}
			deliver(j.idx, l.WithIndex(j.idx))
			return nil
		})
		if err == nil && received < len(group) {
			err = fmt.Errorf("cluster: backend %s returned %d results for %d jobs", b.url, received, len(group))
		}
		return err
	})
	span.SetAttr("ok", strconv.FormatBool(err == nil))
	span.End()
	rest := append(retry, group[received:]...)
	if err != nil {
		// The leg failed: the backend died mid-stream, broke the framing,
		// shed the batch, or is draining. Retry the jobs it did not
		// answer on their next replica unless the error is permanent (or
		// the caller is gone).
		c.noteFailure(b, err)
		if c.opts.DropRescatter {
			return // test-only mutation: lose the jobs instead of failing over
		}
		if ctx.Err() != nil || !retryable(err) {
			ae := apiErrorFrom(err)
			for _, j := range rest {
				deliver(j.idx, errorLine(j.idx, ae))
			}
			return
		}
	}
	if len(rest) > 0 {
		c.reroutes.Add(uint64(len(rest)))
		c.scatter(ctx, ring, rest, exclude(excluded, b.url), deliver)
	}
}

// exclude copies m with backend added; scatter recursion terminates
// because the exclusion set grows by one live backend per level.
func exclude(m map[string]bool, backend string) map[string]bool {
	out := make(map[string]bool, len(m)+1)
	for k := range m {
		out[k] = true
	}
	out[backend] = true
	return out
}

// isTemporaryCode reports whether a per-job error code is worth a try
// on another replica.
func isTemporaryCode(code server.ErrorCode) bool {
	switch code {
	case server.CodeOverloaded, server.CodeShuttingDown, server.CodeUnavailable:
		return true
	}
	return false
}

// errorLine is one job's result line carrying an error envelope.
func errorLine(idx int, ae *server.APIError) []byte {
	return server.SweepResultLine(server.SweepResult{Index: idx, Error: ae.Message, ErrorCode: ae.Code})
}
