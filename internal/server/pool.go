package server

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"primecache/internal/obs"
	"primecache/internal/sim"
)

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed = errors.New("server: compute pool closed")

// pool is the compute-slot limit: a semaphore of size tokens. Submit
// takes a token, runs the job on the submitting goroutine and hands the
// token back, which puts a hard ceiling on the CPU a burst of sweep
// requests can consume regardless of how many HTTP connections are
// open. The pool starts no goroutine of its own.
type pool struct {
	tokens chan struct{} // one element per running job
	closed chan struct{} // closed by Close: refuse new work
	once   sync.Once

	clock     sim.Clock
	busy      *obs.Gauge
	queued    *obs.Gauge
	completed *obs.Counter
	latency   *obs.Histogram
}

// newPool builds a pool of size slots (size <= 0 selects GOMAXPROCS)
// and registers its occupancy metrics on m (which may be nil).
// Latencies are measured on clk (nil selects the real clock), so
// simulation tests control what the pool histogram, and everything
// priced from it like Retry-After hints, observes.
func newPool(size int, m *obs.Registry, clk sim.Clock) *pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	if m == nil {
		m = obs.NewRegistry(nil)
	}
	m.Gauge("pool.workers").Set(int64(size))
	return &pool{
		tokens:    make(chan struct{}, size),
		closed:    make(chan struct{}),
		clock:     sim.Or(clk),
		busy:      m.Gauge("pool.busy"),
		queued:    m.Gauge("pool.queued"),
		completed: m.Counter("pool.completed"),
		latency:   m.Histogram("latency.pool"),
	}
}

// size returns the slot count.
func (p *pool) size() int { return cap(p.tokens) }

// Submit waits for a slot and runs fn in it on the calling goroutine.
// It gives up without running fn when ctx ends or the pool closes
// before a slot is free, and skips fn when ctx ended while it waited.
// fn is responsible for honouring ctx once it is running.
func (p *pool) Submit(ctx context.Context, fn func(context.Context) (any, error)) (any, error) {
	_, wait := obs.Start(ctx, "pool.wait")
	p.queued.Inc()
	err := p.acquire(ctx)
	p.queued.Dec()
	wait.End()
	if err != nil {
		return nil, err
	}
	defer func() { <-p.tokens }()
	p.busy.Inc()
	start := p.clock.Now()
	ctx, span := obs.Start(ctx, "pool.run")
	v, err := fn(ctx)
	span.End()
	p.latency.Observe(p.clock.Since(start))
	p.busy.Dec()
	p.completed.Inc()
	return v, err
}

// acquire takes a token unless ctx ends or the pool closes first. A
// token won in a race with Close or with ctx's end is handed straight
// back: select picks among ready cases at random, and neither a closed
// pool nor a requester that already gave up should start a job.
func (p *pool) acquire(ctx context.Context) error {
	select {
	case p.tokens <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-p.closed:
		return ErrPoolClosed
	}
	err := ctx.Err()
	select {
	case <-p.closed:
		err = ErrPoolClosed
	default:
	}
	if err != nil {
		<-p.tokens
	}
	return err
}

// Close refuses new jobs and returns once every running job has
// finished, by taking every token for good. Idempotent.
func (p *pool) Close() {
	p.once.Do(func() {
		close(p.closed)
		for i := 0; i < cap(p.tokens); i++ {
			p.tokens <- struct{}{}
		}
	})
}
