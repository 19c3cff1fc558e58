package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/cmplx"
	"sync"

	"primecache/internal/cache"
	"primecache/internal/obs"
	"primecache/internal/oracle"
	"primecache/internal/trace"
	"primecache/internal/workloads"
)

// kernels is the in-process simulator workload. One operation is one
// round: every kernelMenu job once, in a seed-permuted order, each on a
// flushed cache. A round simulates the same references for every seed.
// The caches are shared across rounds, so it runs with one client.
type kernels struct {
	jobs   []kernelJob
	order  []int
	base   uint64 // start-address shift, in words
	sims   []cache.Sim
	tracer *obs.Tracer

	in       kernelInputs
	refs     uint64       // references one round simulates
	warmOut  []uint64     // output hash of every job in the warm-up round
	warmData kernelOutput // the warm-up round's numerical results

	mu     sync.Mutex
	rounds map[int]roundOut
}

type roundOut struct {
	stats []cache.Stats // by menu index
	hash  []uint64
}

// kernelInputs are the numerical kernels' operands. Their values are
// fixed; only their addresses follow the seed.
type kernelInputs struct {
	a, b, lu *workloads.Matrix
	fft      []complex128
}

type kernelOutput struct {
	c, lu *workloads.Matrix
	fft   []complex128
}

func newKernelInputs(base uint64) kernelInputs {
	w := base * period
	in := kernelInputs{
		a:   workloads.NewMatrix(kernelN, kernelN, w),
		b:   workloads.NewMatrix(kernelN, kernelN, w+1<<16),
		lu:  workloads.NewMatrix(kernelN, kernelN, w+3<<16),
		fft: make([]complex128, fftB1*fftB2),
	}
	for i := 0; i < kernelN; i++ {
		for j := 0; j < kernelN; j++ {
			in.a.Set(i, j, float64((i*7+j*3)%11)-5)
			in.b.Set(i, j, float64((i*5+j*13)%17)/4-2)
			v := float64((i*3+j*11)%7) - 3
			if i == j {
				v += 4 * kernelN // diagonally dominant: LU needs no pivoting
			}
			in.lu.Set(i, j, v)
		}
	}
	for t := range in.fft {
		in.fft[t] = complex(math.Sin(float64(t)*0.37), math.Cos(float64(t)*0.11))
	}
	return in
}

func setupKernels(cfg config, traced bool) (instance, error) {
	k := &kernels{
		jobs:   kernelMenu(),
		base:   seedBase(cfg.seed),
		rounds: map[int]roundOut{},
	}
	k.order = seedPerm(cfg.seed, len(k.jobs))
	for i := range k.jobs {
		k.jobs[i].pat.Start = k.base * period
	}
	for _, o := range kernelOrgs {
		sim, err := o.spec.Build()
		if err != nil {
			return nil, err
		}
		k.sims = append(k.sims, sim)
	}
	k.in = newKernelInputs(k.base)
	if traced {
		k.tracer = newTracer("bench")
	}
	// Warm-up round: fills the allocator and the caches' maps, and
	// yields the per-round reference count and reference outputs.
	warm, out, err := k.round(context.Background())
	if err != nil {
		return nil, err
	}
	k.warmOut, k.warmData = warm.hash, out
	for _, st := range warm.stats {
		k.refs += st.Accesses
	}
	return k, nil
}

func (k *kernels) do(ctx context.Context, seq int) error {
	r, _, err := k.round(ctx)
	if err != nil {
		return err
	}
	k.mu.Lock()
	k.rounds[seq] = r
	k.mu.Unlock()
	return nil
}

func (k *kernels) simRefs(int) uint64 { return k.refs }

// round runs every job once in the seed's order.
func (k *kernels) round(ctx context.Context) (roundOut, kernelOutput, error) {
	r := roundOut{stats: make([]cache.Stats, len(k.jobs)), hash: make([]uint64, len(k.jobs))}
	var out kernelOutput
	if k.tracer != nil {
		var span *obs.Span
		ctx, span = k.tracer.StartSpan(ctx, "kernels.round")
		defer span.End()
	}
	for _, i := range k.order {
		j := k.jobs[i]
		sim := k.sims[j.org]
		sim.Flush()
		var err error
		if j.kern == "" {
			_, span := obs.Start(ctx, "trace.ReplayPattern")
			r.stats[i], err = trace.ReplayPattern(sim, j.pat, kernelPasses)
			span.End()
		} else {
			_, span := obs.Start(ctx, "workloads."+j.kern)
			r.hash[i], err = runKernel(j.kern, k.in, sim, &out)
			span.End()
			r.stats[i] = sim.Stats()
		}
		if err != nil {
			return r, out, fmt.Errorf("%s: %w", j.name, err)
		}
	}
	return r, out, nil
}

// runKernel runs one numerical kernel on fresh copies of its operands,
// emitting references into mem (nil runs it untraced), stores the
// result in out and returns a hash of it.
func runKernel(kern string, in kernelInputs, mem workloads.Memory, out *kernelOutput) (uint64, error) {
	h := fnv.New64a()
	put := func(xs ...float64) {
		var b [8]byte
		for _, x := range xs {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	switch kern {
	case "matmul":
		c := workloads.NewMatrix(kernelN, kernelN, in.a.BaseWord+2<<16)
		if err := workloads.BlockedMatMul(in.a, in.b, c, kernelBlk, mem); err != nil {
			return 0, err
		}
		put(c.Data...)
		out.c = c
	case "lu":
		m := workloads.NewMatrix(kernelN, kernelN, in.lu.BaseWord)
		copy(m.Data, in.lu.Data)
		if err := workloads.BlockedLU(m, kernelBlk, mem); err != nil {
			return 0, err
		}
		put(m.Data...)
		out.lu = m
	case "fft2d":
		x := append([]complex128(nil), in.fft...)
		if err := workloads.FFT2D(x, fftB1, fftB2, in.a.BaseWord+4<<16, mem); err != nil {
			return 0, err
		}
		for _, v := range x {
			put(real(v), imag(v))
		}
		out.fft = x
	default:
		return 0, fmt.Errorf("unknown kernel %q", kern)
	}
	return h.Sum64(), nil
}

// verify replays every job through the reference simulator and checks
// each round's statistics against it, each round's numerical results
// against the warm-up round's, and those against the kernels'
// reference implementations.
func (k *kernels) verify(tierDelta) verdict {
	want := make([]cache.Stats, len(k.jobs))
	errs := make([]error, len(k.jobs))
	parallel(len(k.jobs), func(i int) {
		j := k.jobs[i]
		ref, err := oracle.NewRefSim(kernelOrgs[j.org].spec)
		if err != nil {
			errs[i] = err
			return
		}
		if j.kern == "" {
			want[i], errs[i] = trace.ReplayPattern(ref, j.pat, kernelPasses)
			return
		}
		var out kernelOutput
		_, errs[i] = runKernel(j.kern, k.in, ref, &out)
		want[i] = ref.Stats()
	})
	var v verdict
	for i, err := range errs {
		if err != nil {
			v.problem("oracle %s: %v", k.jobs[i].name, err)
		}
	}
	numeric := k.checkNumerics()
	if numeric != nil {
		v.problem("warm-up round: %v", numeric)
	}
	for seq, r := range k.rounds {
		ok := numeric == nil
		for i := range k.jobs {
			if r.stats[i] != want[i] {
				ok = false
				v.problem("round %d %s: stats %+v, oracle %+v", seq, k.jobs[i].name, r.stats[i], want[i])
			}
			if r.hash[i] != k.warmOut[i] {
				ok = false
				v.problem("round %d %s: result differs from the warm-up round", seq, k.jobs[i].name)
			}
		}
		if !ok {
			v.bad++
		}
	}
	d := newDigest()
	for i, j := range k.jobs {
		d.add(j.name, want[i])
	}
	v.digest = d.sum()
	return v
}

// checkNumerics compares the warm-up round's results with the
// reference implementations.
func (k *kernels) checkNumerics() error {
	out := k.warmData
	ref := workloads.NewMatrix(kernelN, kernelN, 0)
	if err := workloads.MatMulReference(k.in.a, k.in.b, ref); err != nil {
		return err
	}
	for i := range ref.Data {
		if math.Abs(out.c.Data[i]-ref.Data[i]) > 1e-9*(1+math.Abs(ref.Data[i])) {
			return fmt.Errorf("matmul element %d = %v, reference %v", i, out.c.Data[i], ref.Data[i])
		}
	}
	rec := workloads.LUReconstruct(out.lu)
	for i := range rec.Data {
		if math.Abs(rec.Data[i]-k.in.lu.Data[i]) > 1e-9*(1+math.Abs(k.in.lu.Data[i])) {
			return fmt.Errorf("L·U element %d = %v, input %v", i, rec.Data[i], k.in.lu.Data[i])
		}
	}
	want := workloads.FFTReference(k.in.fft)
	// FFT2D leaves X[k2 + B1·k1] at x[k1 + B2·k2].
	for k1 := 0; k1 < fftB2; k1++ {
		for k2 := 0; k2 < fftB1; k2++ {
			g, w := out.fft[k1+fftB2*k2], want[k2+fftB1*k1]
			if cmplx.Abs(g-w) > 1e-8*(1+cmplx.Abs(w)) {
				return fmt.Errorf("FFT X[%d,%d] = %v, reference %v", k1, k2, g, w)
			}
		}
	}
	return nil
}

func (k *kernels) counters() (tierCounts, error) { return tierCounts{}, nil }

func (k *kernels) shares() shares { return shares{} }

func (k *kernels) tracers() []*obs.Tracer { return nonNil(k.tracer) }

func (k *kernels) close() error { return nil }
