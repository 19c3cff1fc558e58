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
var ErrPoolClosed = errors.New("server: worker pool closed")

// Pool is a bounded worker pool: a fixed number of goroutines service
// submitted jobs, putting a hard ceiling on the CPU a burst of sweep
// requests can consume regardless of how many HTTP connections are open.
type Pool struct {
	tasks      chan *poolTask
	closed     chan struct{} // closed by Close: stop accepting work
	terminated chan struct{} // closed after every worker has exited
	once       sync.Once
	wg         sync.WaitGroup

	size      int
	clock     sim.Clock
	busy      *obs.Gauge
	queued    *obs.Gauge
	completed *obs.Counter
	latency   *obs.Histogram
}

type poolTask struct {
	ctx  context.Context
	fn   func(context.Context) (any, error)
	done chan poolResult
	// wait spans the time between Submit and a worker picking the task
	// up; run() ends it and opens the sibling pool.run span around fn.
	wait *obs.Span
}

type poolResult struct {
	value any
	err   error
}

// NewPool starts size workers (size <= 0 selects GOMAXPROCS) and
// registers occupancy metrics on m (which may be nil). Latencies are
// measured on clk (nil selects the real clock), so simulation tests
// control what the pool histogram, and everything priced from it like
// Retry-After hints, observes.
func NewPool(size int, m *obs.Registry, clk sim.Clock) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	if m == nil {
		m = obs.NewRegistry(nil)
	}
	p := &Pool{
		// A small queue smooths bursts; Submit still blocks (or times
		// out) when all workers are busy and the queue is full.
		tasks:      make(chan *poolTask, size),
		closed:     make(chan struct{}),
		terminated: make(chan struct{}),
		size:       size,
		clock:      sim.Or(clk),
		busy:       m.Gauge("pool.busy"),
		queued:     m.Gauge("pool.queued"),
		completed:  m.Counter("pool.completed"),
		latency:    m.Histogram("latency.pool"),
	}
	m.Gauge("pool.workers").Set(int64(size))
	p.wg.Add(size)
	for i := 0; i < size; i++ {
		go p.worker()
	}
	return p
}

// Size returns the worker count.
func (p *Pool) Size() int { return p.size }

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case t := <-p.tasks:
			p.run(t)
		case <-p.closed:
			// Drain jobs that were queued before Close so no accepted
			// work is dropped.
			for {
				select {
				case t := <-p.tasks:
					p.run(t)
				default:
					return
				}
			}
		}
	}
}

func (p *Pool) run(t *poolTask) {
	p.queued.Dec()
	t.wait.End()
	// A job whose requester already gave up is not worth computing.
	if err := t.ctx.Err(); err != nil {
		t.done <- poolResult{err: err}
		return
	}
	p.busy.Inc()
	start := p.clock.Now()
	ctx, span := obs.Start(t.ctx, "pool.run")
	v, err := t.fn(ctx)
	span.End()
	p.latency.Observe(p.clock.Since(start))
	p.busy.Dec()
	p.completed.Inc()
	t.done <- poolResult{value: v, err: err}
}

// Submit runs fn on a pool worker and blocks until it completes, the
// context is cancelled while the job is still queued, or the pool is
// closed before the job is accepted. fn is responsible for honouring ctx
// once it is running.
func (p *Pool) Submit(ctx context.Context, fn func(context.Context) (any, error)) (any, error) {
	_, wait := obs.Start(ctx, "pool.wait")
	t := &poolTask{ctx: ctx, fn: fn, done: make(chan poolResult, 1), wait: wait}
	p.queued.Inc()
	select {
	case p.tasks <- t:
	case <-ctx.Done():
		p.queued.Dec()
		wait.End()
		return nil, ctx.Err()
	case <-p.closed:
		p.queued.Dec()
		wait.End()
		return nil, ErrPoolClosed
	}
	select {
	case r := <-t.done:
		return r.value, r.err
	case <-p.terminated:
		// Every worker has exited; if the job squeaked into the queue
		// during shutdown and was not drained, nobody will ever run it.
		select {
		case r := <-t.done:
			return r.value, r.err
		default:
			// Submit's increment is never matched by run(): the task
			// is abandoned, so account for it here.
			p.queued.Dec()
			wait.End()
			return nil, ErrPoolClosed
		}
	}
}

// Close stops accepting new jobs, lets queued and running jobs finish,
// and waits for every worker to exit. Idempotent.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.closed)
		p.wg.Wait()
		close(p.terminated)
	})
	p.wg.Wait()
}
