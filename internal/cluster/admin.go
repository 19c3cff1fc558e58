package cluster

import (
	"context"
	"crypto/subtle"
	"net/http"
	"time"

	"primecache/internal/client"
	"primecache/internal/server"
)

// The /v1/admin/backends surface: live cluster membership. GET lists
// the members, POST joins a backend (warm-state migration first, then
// an atomic ring swap), DELETE drains one out. All three are gated by
// the AdminToken bearer credential; join and leave additionally
// serialize on adminMu so concurrent membership changes cannot
// interleave their migrations and swaps.

// drainQuiesceTimeout bounds how long a leave waits for the departing
// backend's in-flight requests to finish after the ring swap. Wall
// clock, not the injected sim clock: the wait is an operational bound
// on real network activity, and an admin call must not block on a
// virtual clock nobody is advancing.
const drainQuiesceTimeout = 10 * time.Second

// requireAdmin gates h behind the configured admin token. With no
// token configured the whole admin surface answers not_found — an
// unconfigured coordinator does not reveal it has an admin API. A
// wrong or missing credential answers unauthorized; the comparison is
// constant-time.
func (c *Coordinator) requireAdmin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.opts.AdminToken == "" {
			writeErr(w, server.Errf(server.CodeNotFound, "admin API disabled (start the coordinator with an admin token)"))
			return
		}
		got := []byte(r.Header.Get("Authorization"))
		want := []byte("Bearer " + c.opts.AdminToken)
		if subtle.ConstantTimeCompare(got, want) != 1 {
			writeErr(w, server.Errf(server.CodeUnauthorized, "missing or invalid admin token"))
			return
		}
		h(w, r)
	}
}

func (c *Coordinator) handleAdminList(w http.ResponseWriter, _ *http.Request) {
	c.memberMu.RLock()
	ring, version := c.ring, c.ringVersion
	c.memberMu.RUnlock()
	hs := c.health.snapshot()
	resp := client.AdminBackendsResponse{
		RingVersion:  version,
		VirtualNodes: ring.VirtualNodes(),
	}
	for _, u := range ring.Backends() {
		s := hs[u]
		resp.Backends = append(resp.Backends, client.AdminBackend{
			URL: u, Healthy: s.Healthy, Draining: s.Draining, WarmKeys: s.WarmKeys,
		})
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// handleAdminJoin adds a backend. Order matters: the joiner is probed,
// then warmed — every persist-tier record whose key it will own is
// streamed onto it — and only then does the ring swap. The first
// request the new routing sends it can answer memoized; at no point
// does a request route to a member that is not ready.
func (c *Coordinator) handleAdminJoin(w http.ResponseWriter, r *http.Request) {
	var req client.AdminChangeRequest
	if err := server.DecodeJSON(r.Body, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.URL == "" {
		writeErr(w, server.Errf(server.CodeInvalidRequest, "url is required"))
		return
	}
	ctx, cancel := c.requestCtx(r)
	defer cancel()

	c.adminMu.Lock()
	defer c.adminMu.Unlock()

	oldRing := c.currentRing()
	if oldRing.Has(req.URL) {
		writeErr(w, server.Errf(server.CodeInvalidRequest, "backend %q is already a member", req.URL))
		return
	}
	newRing, err := NewRing(append(oldRing.Backends(), req.URL))
	if err != nil {
		writeErr(w, server.Errf(server.CodeInvalidRequest, "building ring: %v", err))
		return
	}

	joiner := &backendState{url: req.URL, client: c.newBackendClient(req.URL)}
	pctx, pcancel := context.WithTimeout(ctx, c.opts.ProbeTimeout)
	rz, err := joiner.client.Readyz(pctx)
	pcancel()
	if err != nil {
		joiner.client.Close()
		writeErr(w, server.Errf(server.CodeUnavailable, "joining backend %q is not ready: %v", req.URL, err))
		return
	}

	// Warm the joiner while the old ring still routes: only the arcs
	// the joiner captures move, and only from their current owners.
	moves := movedRanges(oldRing, newRing)
	keys, bytes, errs := c.runMigration(ctx, moves, func(u string) *client.Client {
		if u == req.URL {
			return joiner.client
		}
		if b := c.backendFor(u); b != nil && c.health.healthy(u) {
			return b.client
		}
		return nil
	})

	c.memberMu.Lock()
	c.backends[req.URL] = c.track(joiner)
	c.ring = newRing
	c.ringVersion++
	version := c.ringVersion
	c.memberMu.Unlock()
	c.health.add(req.URL, rz.WarmKeys)
	c.joins.Inc()

	server.WriteJSON(w, http.StatusOK, client.AdminChangeResponse{
		RingVersion:     version,
		Backends:        newRing.Backends(),
		MigratedKeys:    keys,
		MigratedBytes:   bytes,
		MigrationErrors: errs,
	})
}

// handleAdminLeave drains a backend out: it is marked draining (the
// health tiebreak stops preferring it), its persisted shards stream to
// their new owners on the successor ring, the ring swaps atomically,
// and the backend is removed once its in-flight work quiesces — sweep
// legs already routed to it on the old ring finish normally.
func (c *Coordinator) handleAdminLeave(w http.ResponseWriter, r *http.Request) {
	target := r.URL.Query().Get("url")
	if target == "" {
		writeErr(w, server.Errf(server.CodeInvalidRequest, "url query parameter is required"))
		return
	}
	ctx, cancel := c.requestCtx(r)
	defer cancel()

	c.adminMu.Lock()
	defer c.adminMu.Unlock()

	oldRing := c.currentRing()
	if !oldRing.Has(target) {
		writeErr(w, server.Errf(server.CodeInvalidRequest, "backend %q is not a member", target))
		return
	}
	remaining := make([]string, 0, len(oldRing.Backends())-1)
	for _, b := range oldRing.Backends() {
		if b != target {
			remaining = append(remaining, b)
		}
	}
	if len(remaining) == 0 {
		writeErr(w, server.Errf(server.CodeInvalidRequest, "cannot remove the last backend"))
		return
	}
	newRing, err := NewRing(remaining)
	if err != nil {
		writeErr(w, server.Errf(server.CodeInternal, "building ring: %v", err))
		return
	}

	// Stop preferring the leaver for new work while its shards move.
	c.health.reportDraining(target)
	leaver := c.backendFor(target)

	moves := movedRanges(oldRing, newRing)
	keys, bytes, errs := c.runMigration(ctx, moves, func(u string) *client.Client {
		if u == target {
			if leaver != nil {
				return leaver.client
			}
			return nil
		}
		if b := c.backendFor(u); b != nil && c.health.healthy(u) {
			return b.client
		}
		return nil
	})

	// Atomic swap: new requests route without the leaver; requests that
	// captured the old ring still resolve it via backendFor until the
	// final removal below.
	c.memberMu.Lock()
	c.ring = newRing
	c.ringVersion++
	version := c.ringVersion
	c.memberMu.Unlock()

	drained := c.quiesce(ctx, leaver)

	c.memberMu.Lock()
	delete(c.backends, target)
	c.memberMu.Unlock()
	c.metrics.Remove(backendLabel(target))
	c.health.remove(target)
	if leaver != nil {
		leaver.client.Close()
	}
	c.leaves.Inc()

	server.WriteJSON(w, http.StatusOK, client.AdminChangeResponse{
		RingVersion:     version,
		Backends:        newRing.Backends(),
		MigratedKeys:    keys,
		MigratedBytes:   bytes,
		MigrationErrors: errs,
		Drained:         drained,
	})
}

// quiesce waits (bounded, wall clock) for b's in-flight request gauge
// to reach zero. Returns false when the wait times out or the admin
// request's context ends; the backend is removed regardless — a stuck
// request must not wedge membership.
func (c *Coordinator) quiesce(ctx context.Context, b *backendState) bool {
	if b == nil {
		return true
	}
	deadline := time.Now().Add(drainQuiesceTimeout)
	for b.inflight.Value() > 0 {
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}
