package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"primecache/internal/cache"
	"primecache/internal/trace"
)

// flipCtx is a Context whose Err flips to Canceled after `after` calls.
// The evaluation paths consult only ctx.Err() — never Done() — so the
// flip count pins exactly which checkpoint observes the cancellation,
// making the stop-distance assertions below deterministic.
type flipCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestReplayCancellationStopsWithinChunk: a ten-megareference job on
// the batch replay path (assoc organisation, so no closed form) stops
// within a chunk of the checkpoint that observes the cancellation, not
// after the full job. The replay checks the context after every
// evalChunk references and between passes.
func TestReplayCancellationStopsWithinChunk(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pattern  trace.Pattern
		after    int64  // Err calls that pass before the flip
		min, max uint64 // bounds on the references completed
	}{
		// Passes of 2^20 references, a multiple of evalChunk: the first
		// two checkpoints pass and the third, after the third chunk,
		// cancels, so exactly three chunks completed.
		{"strided", trace.Pattern{Name: "strided", Stride: 3, N: 1 << 20, Stream: 1}, 2, 3 * evalChunk, 3 * evalChunk},
		// One check passes, the second cancels, so between one and two
		// chunks completed.
		{"subblock", trace.Pattern{Name: "subblock", LD: 2048, B1: 1024, B2: 1024, Stream: 1}, 1, evalChunk, 2 * evalChunk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := SimulateRequest{
				Cache:   cache.Spec{Kind: "assoc", Lines: 1 << 14, Ways: 4},
				Pattern: tc.pattern,
				Passes:  10, // ~10.5M references if allowed to finish
			}.Normalize()
			ctx := &flipCtx{Context: context.Background(), after: tc.after}
			_, err := runSimulate(ctx, req, evalOpts{})
			var pe *PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PartialError", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("partial error does not unwrap to Canceled: %v", err)
			}
			if pe.Refs < tc.min || pe.Refs > tc.max {
				t.Errorf("stopped after %d refs, want within [%d, %d]", pe.Refs, tc.min, tc.max)
			}
		})
	}
}

// TestTimeoutSurfacesPartialWork: over HTTP, a job killed by the request
// timeout produces the typed 504 envelope and its burned references show
// up in the /v1/stats partial-work counters.
func TestTimeoutSurfacesPartialWork(t *testing.T) {
	_, ts := newTestServer(t, Options{RequestTimeout: 20 * time.Millisecond})
	req := SimulateRequest{
		Cache:   cache.Spec{Kind: "assoc", Lines: 1 << 17, Ways: 4},
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 1 << 20},
		Passes:  50,
	}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code != CodeTimeout {
		t.Fatalf("timeout envelope malformed: %s", body)
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Partial.CancelledJobs < 1 {
		t.Errorf("partial.cancelledJobs = %d, want >= 1", stats.Partial.CancelledJobs)
	}
	if stats.Partial.RefsCompleted == 0 {
		t.Error("partial.refsCompleted = 0: timed-out job's burned work not accounted")
	}
}
