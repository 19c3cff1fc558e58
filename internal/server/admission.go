package server

import (
	"context"
	"sync/atomic"
	"time"

	"primecache/internal/obs"
	"primecache/internal/sim"
)

// admission is the server's overload valve. Every compute request
// (simulate, model, sweep) claims one slot in a bounded global queue
// before any work is scheduled; when it is full the request is shed
// immediately with an "overloaded" envelope and a Retry-After hint
// derived from the current queue depth, so a burst of distinct jobs
// (the memoizer-defeating load shape) degrades into fast 429s instead
// of an unbounded backlog of goroutines. Healthz and stats bypass
// admission: they must answer while the server sheds.
type admission struct {
	slots chan struct{}

	queued *obs.Gauge
	shed   *obs.Counter
}

// newAdmission builds a valve of capacity slots.
func newAdmission(capacity int, m *obs.Registry) *admission {
	m.Gauge("admission.capacity").Set(int64(capacity))
	return &admission{
		slots:  make(chan struct{}, capacity),
		queued: m.Gauge("admission.queued"),
		shed:   m.Counter("admission.shed"),
	}
}

// tryAdmit claims a slot without blocking. On success the returned
// release frees it (extra calls are no-ops); on overload it returns
// false and counts the shed.
func (a *admission) tryAdmit() (release func(), ok bool) {
	select {
	case a.slots <- struct{}{}:
	default:
		a.shed.Inc()
		return nil, false
	}
	a.queued.Inc()
	var released atomic.Bool
	return func() {
		if released.Swap(true) {
			return
		}
		a.queued.Dec()
		<-a.slots
	}, true
}

// depth returns the current global queue occupancy.
func (a *admission) depth() int { return len(a.slots) }

// capacity returns the global queue size.
func (a *admission) capacity() int { return cap(a.slots) }

// pressure returns occupancy as a fraction of capacity in [0, 1].
func (a *admission) pressure() float64 {
	c := cap(a.slots)
	if c == 0 {
		return 1
	}
	return float64(len(a.slots)) / float64(c)
}

// retryAfterHint estimates how long a shed client should wait before
// retrying: the current backlog divided across the workers, priced at
// the mean observed compute latency (a fixed default before any job has
// completed), clamped to a sane range. The estimate is intentionally
// rough — its job is to spread the retry storm, not to be exact.
func retryAfterHint(depth, workers int, meanComputeUs float64) int64 {
	const (
		defaultJobMs = 250
		minMs        = 100
		maxMs        = 30_000
	)
	jobMs := defaultJobMs
	if meanComputeUs > 0 {
		jobMs = int(meanComputeUs / 1000)
	}
	if workers < 1 {
		workers = 1
	}
	ms := int64(depth+1) * int64(jobMs) / int64(workers)
	if ms < minMs {
		ms = minMs
	}
	if ms > maxMs {
		ms = maxMs
	}
	return ms
}

// Fault is one injected failure, produced by a FaultFunc. The zero
// value means "no fault". Faults are applied in field order: Latency
// first, then QueueFull/Err.
type Fault struct {
	// Latency delays the stage (bounded by the request context where
	// one is available).
	Latency time.Duration
	// QueueFull, at the admit stage, sheds the request as if the
	// admission queue were full, regardless of real occupancy.
	QueueFull bool
	// Err aborts the stage with this error.
	Err error
}

// FaultFunc deterministically maps (stage, sequence number) to a fault
// to inject; stages are "admit" (before admission control runs) and
// "compute" (in a compute slot, before the job body). Sequence numbers
// start at 1 and are per-stage. Fault injection exists for the stress
// suite: production servers leave Options.Faults nil.
type FaultFunc func(stage string, seq uint64) Fault

// sleepFault waits out a latency fault on clk, giving up early if ctx
// ends.
func sleepFault(ctx context.Context, clk sim.Clock, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := sim.Or(clk).NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
