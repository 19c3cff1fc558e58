package main

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts: in
// ten consecutive runs of identical work, throughput and CPU time per
// operation rose by half while the checks' deterministic CPU work sped
// up alike. So every timed end-to-end metric is reported at the speed
// of a reference host. Between the windows of the timed phase, with no
// operation in flight and the collector just run, the benchmark times a
// fixed kernel that uses nothing of the program and allocates nothing;
// a window's durations, and each set-up's, are scaled by
// calibrationRef over the kernel's pass time around it. Raw figures
// are printed with every report.

// calibrationRef is the median calibration pass on the reference host,
// a 2-vCPU Xeon virtual machine at 2.1 GHz, with one lane; with two
// lanes at once its passes take about 3% longer.
const calibrationRef = 550 * time.Microsecond

// calibrationPasses is how many passes one calibration slice times.
const calibrationPasses = 30

// calibrator runs the kernel on as many goroutines at once as the
// workload has clients, so it also sees a host that gives the process
// fewer cores than it asks for: with one goroutine, service-hot's
// scaled throughput spread more across eight runs than its unscaled
// one (0.075 against 0.053 of the median), with as many as clients
// less (0.027).
type calibrator struct{ lanes []*lane }

// lane owns one goroutine's buffers so passes never allocate.
type lane struct {
	keys, sorted []uint64
	m            map[uint64]uint64
	buf          []byte
	sink         uint64
}

func newCalibrator(width int) *calibrator {
	c := &calibrator{}
	for i := 0; i < width; i++ {
		c.lanes = append(c.lanes, newLane())
	}
	return c
}

func newLane() *lane {
	c := &lane{
		keys:   make([]uint64, 4096),
		sorted: make([]uint64, 4096),
		m:      make(map[uint64]uint64, 4096),
		buf:    make([]byte, 64<<10),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.keys {
		x = x*6364136223846793005 + 1442695040888963407
		c.keys[i] = x
	}
	for i := range c.buf {
		c.buf[i] = byte(i * 7)
	}
	return c
}

// pass is the kernel: map inserts and lookups, a sort and SHA-256, the
// kinds of work the workloads spend their time on.
func (c *lane) pass() {
	clear(c.m)
	for i, k := range c.keys {
		c.m[k] = uint64(i)
	}
	var s uint64
	for _, k := range c.keys {
		s += c.m[k]
	}
	copy(c.sorted, c.keys)
	slices.Sort(c.sorted)
	sum := sha256.Sum256(c.buf)
	c.sink += s + c.sorted[0] + uint64(sum[0])
}

// slowness runs a garbage collection, then times calibrationPasses
// passes on every lane at once and returns the median pass over
// calibrationRef: above 1 the host is slower than the reference.
func (c *calibrator) slowness() float64 {
	runtime.GC()
	xs := make([]float64, len(c.lanes)*calibrationPasses)
	var wg sync.WaitGroup
	for i, l := range c.lanes {
		wg.Add(1)
		go func(l *lane, xs []float64) {
			defer wg.Done()
			for j := range xs {
				t0 := time.Now()
				l.pass()
				xs[j] = float64(time.Since(t0))
			}
		}(l, xs[i*calibrationPasses:(i+1)*calibrationPasses])
	}
	wg.Wait()
	return median(xs) / float64(calibrationRef)
}
