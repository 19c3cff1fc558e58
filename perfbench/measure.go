package main

import (
	"context"
	"math"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window is one slice of a measured phase: the closed loop runs for
// the window's share of the phase, drains, and reports what completed.
type window struct {
	elapsed time.Duration
	cpu     time.Duration
	ops     int             // completed without error
	failed  int             // returned an error
	lats    []time.Duration // one per attempted op, sorted; failed ops are the maximum duration
	refs    uint64          // references the completed ops simulated
	heapMB  float64         // peak heap goal during the window, when sampled
	slow    float64         // host slowness around the window, when calibrated
}

// phaseResult is a measured phase: its windows and how many operations
// it issued (sequence numbers 0 to seqs-1).
type phaseResult struct {
	windows []window
	seqs    int
}

// runPhase drives inst as a closed loop: clients goroutines each issue
// their next operation only after the previous one returned. The phase
// is split into nWindows back-to-back windows so a burst of outside
// load on the host spoils one window, not the reported medians. A
// non-nil h records each window's peak heap goal, a non-nil cal the host's
// slowness around each window (the mean of the calibrations before and
// after it).
func runPhase(inst instance, clients int, dur time.Duration, nWindows int, h *heapSampler, cal *calibrator) phaseResult {
	var res phaseResult
	var next int64
	var before float64
	if cal != nil {
		before = cal.slowness()
	}
	for w := 0; w < nWindows; w++ {
		w := runWindow(inst, clients, dur/time.Duration(nWindows), &next)
		if h != nil {
			w.heapMB = h.take()
		}
		if cal != nil {
			after := cal.slowness()
			w.slow, before = (before+after)/2, after
		}
		res.windows = append(res.windows, w)
	}
	res.seqs = int(next)
	return res
}

func runWindow(inst instance, clients int, dur time.Duration, next *int64) window {
	var (
		mu sync.Mutex
		w  window
		wg sync.WaitGroup
	)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []time.Duration
			var ok, bad int
			var refs uint64
			for time.Now().Before(deadline) {
				seq := int(atomic.AddInt64(next, 1) - 1)
				t0 := time.Now()
				err := inst.do(context.Background(), seq)
				lat := time.Since(t0)
				if err != nil {
					bad++
					lats = append(lats, time.Duration(math.MaxInt64))
					continue
				}
				ok++
				refs += inst.simRefs(seq)
				lats = append(lats, lat)
			}
			mu.Lock()
			w.ops += ok
			w.failed += bad
			w.refs += refs
			w.lats = append(w.lats, lats...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	sort.Slice(w.lats, func(i, j int) bool { return w.lats[i] < w.lats[j] })
	return w
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of xs (mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perWindow applies f to every window and returns the median.
func (p phaseResult) perWindow(f func(w window) float64) float64 {
	xs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

// totals sums the windows.
func (p phaseResult) totals() (ops, failed int, refs uint64, elapsed time.Duration) {
	for _, w := range p.windows {
		ops += w.ops
		failed += w.failed
		refs += w.refs
		elapsed += w.elapsed
	}
	return
}

// allLatencies merges every window's latencies, sorted.
func (p phaseResult) allLatencies() []time.Duration {
	var all []time.Duration
	for _, w := range p.windows {
		all = append(all, w.lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

func throughput(w window) float64 { return float64(w.ops) / w.elapsed.Seconds() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler tracks the peak heap goal: the heap size the collector
// paces each cycle to finish by, twice the heap it found live at the
// end of the previous cycle (plus stacks and globals) at the default
// GOGC. It reads it through runtime/metrics, which does not stop the
// world, every millisecond. The heap actually held overshoots the
// goal by how much the program allocates while the collector marks,
// and so by how fast the host lets the collector run: its window
// peaks rose by a fifth in some runs of identical work. The goal
// leaves that overshoot out.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

// startHeapSampler first collects garbage and returns free memory to
// the operating system, so what set-up left behind does not count.
func startHeapSampler() *heapSampler {
	debug.FreeOSMemory()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			goal := s[0].Value.Uint64()
			for p := h.peak.Load(); goal > p && !h.peak.CompareAndSwap(p, goal); p = h.peak.Load() {
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak in MiB since the previous take.
func (h *heapSampler) take() float64 { return float64(h.peak.Swap(0)) / (1 << 20) }

// finish stops the sampler and waits for it.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}
