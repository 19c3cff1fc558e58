package workloads

import (
	"fmt"
	"math/rand"
	"testing"

	"primecache/internal/cache"
)

// emitKernels runs every kernel of the package at a size that emits
// several batches of references and drives small caches into conflict
// and capacity misses. The last one stops on a zero pivot, part way
// through its references.
var emitKernels = []struct {
	name string
	run  func(mem Memory) error
}{
	{"matmul", func(mem Memory) error {
		rng := rand.New(rand.NewSource(1))
		return BlockedMatMul(randMatrix(20, 12, 0, rng), randMatrix(12, 16, 1<<12, rng), NewMatrix(20, 16, 1<<13), 8, mem)
	}},
	{"gemv", func(mem Memory) error {
		return GEMV(NewMatrixLD(24, 16, 256, 0), NewVector(16, 1<<13), NewVector(24, 1<<14), mem)
	}},
	{"lu", func(mem Memory) error {
		a := NewMatrix(20, 20, 96)
		for i := 0; i < 20; i++ {
			a.Set(i, i, 4)
		}
		return BlockedLU(a, 6, mem)
	}},
	{"fft2d", func(mem Memory) error { return FFT2D(make([]complex128, 256), 16, 16, 512, mem) }},
	{"ifft+fft", func(mem Memory) error {
		x := make([]complex128, 128)
		if err := IFFTInPlace(x, 64, mem); err != nil {
			return err
		}
		return FFTForwardInPlace(x, 64, mem)
	}},
	{"convolve", func(mem Memory) error {
		_, err := Convolve(make([]complex128, 128), make([]complex128, 128), 0, 128*64, mem)
		return err
	}},
	{"saxpy", func(mem Memory) error {
		return SAXPY(2, make([]float64, 64*32), make([]float64, 64*32), 0, 1<<14, 32, 32, 64, mem)
	}},
	{"cg", func(mem Memory) error {
		a := NewMatrix(16, 16, 0)
		b := NewVector(16, 1<<12)
		for i := 0; i < 16; i++ {
			a.Set(i, i, 2)
			b.Data[i] = 1
		}
		_, err := ConjugateGradient(a, b, NewVector(16, 1<<13), 5, 1e-12, mem)
		return err
	}},
	{"transpose", func(mem Memory) error { return Transpose(NewMatrix(16, 24, 0), NewMatrix(24, 16, 1<<12), mem) }},
	{"blocked-transpose", func(mem Memory) error {
		return BlockedTranspose(NewMatrix(16, 24, 0), NewMatrix(24, 16, 1<<12), 5, mem)
	}},
	{"stencil5", func(mem Memory) error {
		return Stencil5(NewMatrixLD(16, 16, 128, 0), NewMatrixLD(16, 16, 128, 1<<12), mem)
	}},
	{"lu-zero-pivot", func(mem Memory) error {
		a := NewMatrix(12, 12, 0)
		for i := range a.Data {
			a.Data[i] = 1 // the second pivot is 1 − 1·1 = 0
		}
		if err := BlockedLU(a, 4, mem); err == nil {
			return fmt.Errorf("zero pivot not reported")
		}
		return nil
	}},
}

// emitCaches are small simulators of every cache.SpecKinds()
// organisation, and a prefetching cache.
var emitCaches = []struct {
	name  string
	build func() (cache.Sim, error)
}{
	{"prime", cache.Spec{Kind: "prime", C: 7}.Build},
	{"direct", cache.Spec{Kind: "direct", Lines: 128}.Build},
	{"assoc", cache.Spec{Kind: "assoc", Lines: 128, Ways: 4}.Build},
	{"full", cache.Spec{Kind: "full", Lines: 32}.Build},
	{"prime-assoc", cache.Spec{Kind: "prime-assoc", C: 5, Ways: 2}.Build},
	{"skewed", cache.Spec{Kind: "skewed", Lines: 128}.Build},
	{"victim", cache.Spec{Kind: "victim", Lines: 128}.Build},
	{"prefetch", func() (cache.Sim, error) {
		c, err := cache.NewDirect(128)
		if err != nil {
			return nil, err
		}
		return cache.NewPrefetchCache(c, cache.PrefetchStride, 2)
	}},
}

// perAccess hides a simulator's AccessBatch, so a kernel hands it each
// reference on its own.
type perAccess struct{ sim cache.Sim }

func (p perAccess) Access(a cache.Access) cache.Result { return p.sim.Access(a) }

// recorder is a Memory that keeps every reference it is given.
type recorder struct{ refs []cache.Access }

func (r *recorder) Access(a cache.Access) cache.Result {
	r.refs = append(r.refs, a)
	return cache.Result{}
}

// batchRecorder is a cache.BatchSim that keeps every reference it is
// given and the size of every batch.
type batchRecorder struct {
	recorder
	batches []int
}

func (r *batchRecorder) AccessBatch(accs []cache.Access, out []cache.Result) {
	r.refs = append(r.refs, accs...)
	r.batches = append(r.batches, len(accs))
}
func (r *batchRecorder) RepeatPass(cache.Stats, uint64) bool { return false }
func (r *batchRecorder) Stats() cache.Stats                  { return cache.Stats{} }
func (r *batchRecorder) Describe() string                    { return "recorder" }
func (r *batchRecorder) Flush()                              {}

// simState is everything a simulator reports about a run.
func simState(sim cache.Sim) string {
	s := fmt.Sprintf("%v evictions=%d", sim.Stats(), sim.Stats().Evictions)
	switch v := sim.(type) {
	case *cache.VictimCache:
		s += fmt.Sprintf(" %+v", v.VictimStats())
	case *cache.PrefetchCache:
		s += fmt.Sprintf(" %+v", v.PrefetchStats())
	}
	return s
}

// TestBatchedEmissionMatchesPerAccess runs every kernel into every
// organisation twice, once batched (the simulator is a cache.BatchSim)
// and once a reference at a time, and requires the same statistics.
func TestBatchedEmissionMatchesPerAccess(t *testing.T) {
	for _, k := range emitKernels {
		for _, c := range emitCaches {
			batched, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			single, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := batched.(cache.BatchSim); !ok {
				t.Fatalf("%s: %T is not a cache.BatchSim", c.name, batched)
			}
			if err := k.run(batched); err != nil {
				t.Fatalf("%s on %s batched: %v", k.name, c.name, err)
			}
			if err := k.run(perAccess{single}); err != nil {
				t.Fatalf("%s on %s per access: %v", k.name, c.name, err)
			}
			if got, want := simState(batched), simState(single); got != want {
				t.Errorf("%s on %s:\n batched    %s\n per access %s", k.name, c.name, got, want)
			}
			if batched.Stats().Accesses == 0 {
				t.Errorf("%s on %s: no references", k.name, c.name)
			}
		}
	}
}

// TestBatchedEmissionSequence requires a batch memory to receive
// exactly the references, in the order, that a memory taking one
// Access at a time sees, in batches of up to emitBatch.
func TestBatchedEmissionSequence(t *testing.T) {
	for _, k := range emitKernels {
		var one recorder
		var batch batchRecorder
		if err := k.run(&one); err != nil {
			t.Fatal(err)
		}
		if err := k.run(&batch); err != nil {
			t.Fatal(err)
		}
		if len(one.refs) != len(batch.refs) {
			t.Fatalf("%s: %d references one at a time, %d batched", k.name, len(one.refs), len(batch.refs))
		}
		for i := range one.refs {
			if one.refs[i] != batch.refs[i] {
				t.Fatalf("%s: reference %d is %+v one at a time, %+v batched", k.name, i, one.refs[i], batch.refs[i])
			}
		}
		// Every kernel call hands over at most one partial batch, its
		// last; ifft+fft makes two calls.
		if max := len(batch.refs)/emitBatch + 2; len(batch.batches) > max {
			t.Errorf("%s: %d references in %d batches, want at most %d", k.name, len(batch.refs), len(batch.batches), max)
		}
		for i, n := range batch.batches {
			if n == 0 || n > emitBatch {
				t.Errorf("%s: batch %d holds %d references", k.name, i, n)
			}
		}
	}
}

// TestBatchedEmissionAllocs checks that a kernel emitting into a warm
// batch simulator allocates nothing for its buffer.
func TestBatchedEmissionAllocs(t *testing.T) {
	sim, err := cache.NewPrime(7)
	if err != nil {
		t.Fatal(err)
	}
	x, y := make([]float64, 64*32), make([]float64, 64*32)
	run := func() {
		sim.Flush()
		if err := SAXPY(2, x, y, 0, 1<<14, 32, 32, 64, sim); err != nil {
			t.Fatal(err)
		}
	}
	run() // grows the simulator's tables
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("SAXPY into a warm batch simulator: %v allocations per call, want 0", allocs)
	}
}
