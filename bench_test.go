package primecache

// The benchmark harness regenerates every figure of the paper's
// evaluation (run `go test -bench=.` or `cmd/figures` for the printed
// series) and reports each figure's headline quantity as a custom metric,
// plus device-level microbenchmarks for the simulator substrates and
// ablations for the design choices DESIGN.md calls out.

import (
	"math"
	"strconv"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/experiments"
	"primecache/internal/hw"
	"primecache/internal/membank"
	"primecache/internal/mersenne"
	"primecache/internal/stats"
	"primecache/internal/vcm"
	"primecache/internal/visa"
	"primecache/internal/vproc"
	"primecache/internal/workloads"
)

// BenchmarkFigure4 regenerates Figure 4 (cycles/result vs t_m, MM vs
// direct CC at B = 2K and 4K) and reports the two crossover points.
func BenchmarkFigure4(b *testing.B) {
	var x2, x4 float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure4()
		x2 = stats.Crossover(f.Series[0].X, f.Series[0].Y, f.Series[1].Y)
		x4 = stats.Crossover(f.Series[2].X, f.Series[2].Y, f.Series[3].Y)
	}
	b.ReportMetric(x2, "crossover-tm-B2K")
	b.ReportMetric(x4, "crossover-tm-B4K")
}

// BenchmarkFigure5 regenerates Figure 5 (cycles/result vs reuse factor)
// and reports the CC-model improvement from R = 1 to R = 64 at t_m = 16.
func BenchmarkFigure5(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure5()
		cc := f.Series[3] // CC-direct tm=16
		gain = cc.Y[0] / cc.Y[len(cc.Y)-1]
	}
	b.ReportMetric(gain, "reuse-speedup-tm16")
}

// BenchmarkFigure6 regenerates Figure 6 (cycles/result vs blocking
// factor) and reports the B at which the direct CC curve crosses the MM
// curve for t_m = 32.
func BenchmarkFigure6(b *testing.B) {
	var x float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure6()
		mm, cc := f.Series[2], f.Series[3]
		x = stats.Crossover(cc.X, cc.Y, mm.Y)
	}
	b.ReportMetric(x, "crossover-B-tm32")
}

// BenchmarkFigure7 regenerates the headline Figure 7 and reports the
// speedups at t_m = M = 64 (paper: ≈3× over direct, ≈5× over MM).
func BenchmarkFigure7(b *testing.B) {
	var dp, mp float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure7()
		last := len(f.Series[0].Y) - 1
		dp = f.Series[1].Y[last] / f.Series[2].Y[last]
		mp = f.Series[0].Y[last] / f.Series[2].Y[last]
	}
	b.ReportMetric(dp, "direct/prime@tm64")
	b.ReportMetric(mp, "mm/prime@tm64")
}

// BenchmarkFigure8 regenerates Figure 8 and reports the prime curve's
// flatness (max/min over blocking factors) against the direct curve's.
func BenchmarkFigure8(b *testing.B) {
	var ps, ds float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure8()
		ps, _ = stats.Spread(f.Series[2].Y)
		ds, _ = stats.Spread(f.Series[1].Y)
	}
	b.ReportMetric(ps, "prime-spread")
	b.ReportMetric(ds, "direct-spread")
}

// BenchmarkFigure9 regenerates Figure 9 and reports the direct/prime gap
// at P_stride1 = 0 and 1.
func BenchmarkFigure9(b *testing.B) {
	var at0, at1 float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure9()
		dir, prm := f.Series[0], f.Series[1]
		at0 = dir.Y[0] / prm.Y[0]
		at1 = dir.Y[len(dir.Y)-1] / prm.Y[len(prm.Y)-1]
	}
	b.ReportMetric(at0, "gap@P1=0")
	b.ReportMetric(at1, "gap@P1=1")
}

// BenchmarkFigure10 regenerates Figure 10 and reports the peak prime
// advantage over the P_ds sweep (paper: 40%–2×).
func BenchmarkFigure10(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure10()
		dir, prm := f.Series[1], f.Series[2]
		peak = 0
		for j := range dir.Y {
			if r := dir.Y[j] / prm.Y[j]; r > peak {
				peak = r
			}
		}
	}
	b.ReportMetric(peak, "peak-advantage")
}

// BenchmarkFigure11 regenerates the row/column figure and reports the
// direct-mapped degradation from all-columns to all-rows, and the prime
// curve's flatness.
func BenchmarkFigure11(b *testing.B) {
	var deg, flat float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure11()
		dir, prm := f.Series[0], f.Series[1]
		deg = dir.Y[len(dir.Y)-1] / dir.Y[0]
		flat, _ = stats.Spread(prm.Y)
	}
	b.ReportMetric(deg, "direct-degradation")
	b.ReportMetric(flat, "prime-spread")
}

// BenchmarkFigure12 regenerates the FFT figure and reports the worst-case
// (minimum) direct/prime improvement over B2 (paper: >2× everywhere).
func BenchmarkFigure12(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure12()
		dir, prm := f.Series[0], f.Series[1]
		worst = math.Inf(1)
		for j := range dir.Y {
			if r := dir.Y[j] / prm.Y[j]; r < worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "min-fft-speedup")
}

// BenchmarkSubblock regenerates the §4 sub-block table and reports the
// mean utilisation of the maximal conflict-free blocks.
func BenchmarkSubblock(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		tab := experiments.SubblockTable()
		var us []float64
		for r := 0; r < tab.Rows(); r++ {
			if tab.Cell(r, 4) == "degenerate" {
				continue
			}
			if u, err := strconv.ParseFloat(tab.Cell(r, 3), 64); err == nil {
				us = append(us, u)
			}
		}
		util = stats.Mean(us)
	}
	b.ReportMetric(util, "mean-utilization")
}

// BenchmarkCrossCheck runs the analytic-versus-event-simulation
// comparison and reports the worst ratio (want ≈1).
func BenchmarkCrossCheck(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		work := vcm.VCM{B: 4096, R: 16, Pds: 0, P1S1: 0.25, P1S2: 0.25}
		const n = 1 << 15
		worst = 1
		for _, tm := range []int{8, 32} {
			mach := vcm.DefaultMachine(64, tm)
			pg := vcm.PrimeGeom(13)
			res, err := vproc.Run(vproc.Config{Mach: mach, Work: work, Geom: &pg, Seed: 1}, n)
			if err != nil {
				b.Fatal(err)
			}
			r := res.CyclesPerResult() / vcm.CyclesPerResultCC(pg, mach, work, n)
			if r < 1 {
				r = 1 / r
			}
			if r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "worst-ana/sim-ratio")
}

// --- device microbenchmarks -----------------------------------------------

// BenchmarkPrimeCacheAccess measures simulator throughput for the prime
// mapping (the Mersenne reduction is in the access path).
func BenchmarkPrimeCacheAccess(b *testing.B) {
	c, err := cache.NewPrime(13)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(cache.Access{Addr: uint64(i) * 4096, Stream: 1})
	}
}

// BenchmarkDirectCacheAccess is the bit-selection baseline for
// BenchmarkPrimeCacheAccess.
func BenchmarkDirectCacheAccess(b *testing.B) {
	c, err := cache.NewDirect(8192)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(cache.Access{Addr: uint64(i) * 4096, Stream: 1})
	}
}

// BenchmarkMersenneReduce measures the folding reduction itself.
func BenchmarkMersenneReduce(b *testing.B) {
	m := mersenne.MustNew(13)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Reduce(uint64(i) * 2654435761)
	}
	_ = sink
}

// BenchmarkAddressUnitNext measures the steady-state Figure-1 datapath.
func BenchmarkAddressUnitNext(b *testing.B) {
	u := mersenne.NewAddressUnit(mersenne.MustNew(13))
	u.SetStride(517)
	u.Start(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Next()
	}
}

// BenchmarkVectorLoadPrime measures the full vector-cache load path.
func BenchmarkVectorLoadPrime(b *testing.B) {
	vc, err := NewPrimeCache(13)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vc.LoadVector(uint64(i), 512, 64, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockedMatMulTraced measures the traced kernel (32×32×32,
// blocked 16) through the prime cache.
func BenchmarkBlockedMatMulTraced(b *testing.B) {
	a := workloads.NewMatrix(32, 32, 0)
	bb := workloads.NewMatrix(32, 32, 1<<16)
	for i := range a.Data {
		a.Data[i] = float64(i % 17)
		bb.Data[i] = float64(i % 11)
	}
	c, err := cache.NewPrime(13)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := workloads.NewMatrix(32, 32, 1<<17)
		if err := workloads.BlockedMatMul(a, bb, out, 16, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticPoint measures one full analytic-model evaluation (all
// three machines), the unit of every figure sweep.
func BenchmarkAnalyticPoint(b *testing.B) {
	m := vcm.DefaultMachine(64, 32)
	v := vcm.DefaultVCM(4096)
	dg, pg := vcm.DirectGeom(13), vcm.PrimeGeom(13)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += vcm.CyclesPerResultMM(m, v, 1<<20)
		sink += vcm.CyclesPerResultCC(dg, m, v, 1<<20)
		sink += vcm.CyclesPerResultCC(pg, m, v, 1<<20)
	}
	_ = sink
}

// BenchmarkProblemSize regenerates the Lam-style problem-size study and
// reports how many sweep points spike for each fixed-block mapping (the
// adaptive prime blocking is conflict-free at every point by test).
func BenchmarkProblemSize(b *testing.B) {
	var direct, prime float64
	for i := 0; i < b.N; i++ {
		tab := experiments.ProblemSizeTable()
		direct, prime = 0, 0
		for r := 0; r < tab.Rows(); r++ {
			if tab.Cell(r, 1) != "0" {
				direct++
			}
			if tab.Cell(r, 2) != "0" {
				prime++
			}
		}
	}
	b.ReportMetric(direct, "direct-fixed-spikes")
	b.ReportMetric(prime, "prime-fixed-spikes")
}

// BenchmarkLineSize regenerates the §2.2 line-size study and reports the
// unit-stride gain and stride-8 pollution at 64-byte lines.
func BenchmarkLineSize(b *testing.B) {
	var gain, pollution float64
	for i := 0; i < b.N; i++ {
		tab := experiments.LineSizeTable()
		first, _ := strconv.ParseFloat(tab.Cell(0, 2), 64)
		last, _ := strconv.ParseFloat(tab.Cell(tab.Rows()-1, 2), 64)
		gain = first / last
		pollution, _ = strconv.ParseFloat(tab.Cell(tab.Rows()-1, 4), 64)
	}
	b.ReportMetric(gain, "unit-stride-gain-64B")
	b.ReportMetric(pollution, "stride8-pollution-64B")
}

// BenchmarkPrefetch regenerates the prefetching comparison and reports
// the stride-512 miss ratios for plain direct vs prime.
func BenchmarkPrefetch(b *testing.B) {
	var direct, prime float64
	for i := 0; i < b.N; i++ {
		tab := experiments.PrefetchTable()
		direct, _ = strconv.ParseFloat(tab.Cell(3, 1), 64)
		prime, _ = strconv.ParseFloat(tab.Cell(3, 5), 64)
	}
	b.ReportMetric(direct, "direct-miss%@512")
	b.ReportMetric(prime, "prime-miss%@512")
}

// BenchmarkPrimeMemory regenerates the prime-banked-memory comparison and
// reports power-of-two-stride stalls per element for both organisations.
func BenchmarkPrimeMemory(b *testing.B) {
	var pow2, prime float64
	for i := 0; i < b.N; i++ {
		tab := experiments.PrimeMemoryTable()
		pow2, _ = strconv.ParseFloat(tab.Cell(2, 1), 64)
		prime, _ = strconv.ParseFloat(tab.Cell(2, 2), 64)
	}
	b.ReportMetric(pow2, "pow2-stalls/elem")
	b.ReportMetric(prime, "prime-stalls/elem")
}

// BenchmarkHardwareClaim regenerates the §2.3 hardware quantities: gate
// count and critical-path margin of the Figure-1 datapath at the paper's
// parameters.
func BenchmarkHardwareClaim(b *testing.B) {
	var gates, margin float64
	for i := 0; i < b.N; i++ {
		d, err := hw.NewDatapath(13, 4)
		if err != nil {
			b.Fatal(err)
		}
		gates = float64(d.Gates())
		margin = float64(hw.AddressAdderDelay(32) - d.Delay())
	}
	b.ReportMetric(gates, "gates")
	b.ReportMetric(margin, "gate-delay-margin")
}

// BenchmarkKernelSuite runs the full kernel × organisation matrix and
// reports the suite-wide direct/prime conflict ratio.
func BenchmarkKernelSuite(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tab := experiments.KernelConflictTable()
		var direct, prime float64
		for r := 0; r < tab.Rows(); r++ {
			d, _ := strconv.ParseFloat(tab.Cell(r, 1), 64)
			p, _ := strconv.ParseFloat(tab.Cell(r, 6), 64)
			direct += d
			prime += p
		}
		ratio = direct / (prime + 1)
	}
	b.ReportMetric(ratio, "direct/prime-conflicts")
}

// BenchmarkSensitivity reports the prime design's dominant swing (P_ds)
// against its stride swing — the "stride sensitivity removed" ablation.
func BenchmarkSensitivity(b *testing.B) {
	var pds, p1 float64
	for i := 0; i < b.N; i++ {
		entries, err := vcm.Sensitivity(vcm.PrimeGeom(13), vcm.DefaultMachine(64, 32), vcm.DefaultVCM(4096), 1<<20, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			switch e.Parameter {
			case "P_ds":
				pds = e.Swing()
			case "P_stride1":
				p1 = e.Swing()
			}
		}
	}
	b.ReportMetric(pds, "pds-swing")
	b.ReportMetric(p1, "stride-swing")
}

// BenchmarkVisaDAXPY measures ISA-level simulation throughput.
func BenchmarkVisaDAXPY(b *testing.B) {
	cpu, err := visa.New(visa.Config{Mach: vcm.DefaultMachine(64, 32), MemWords: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	prog := visa.DAXPY(2.0, 0, 32768, 1, 1, 4096, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cpu.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// --- additional device microbenchmarks --------------------------------------

// BenchmarkSkewedCacheAccess measures the XOR-hashed baseline's
// simulation throughput.
func BenchmarkSkewedCacheAccess(b *testing.B) {
	c, err := cache.NewSkewed(8192)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(cache.Access{Addr: uint64(i) * 4096, Stream: 1})
	}
}

// BenchmarkVictimCacheAccess measures the victim-buffered baseline.
func BenchmarkVictimCacheAccess(b *testing.B) {
	c, err := cache.NewVictim(8192, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(cache.Access{Addr: uint64(i) * 4096, Stream: 1})
	}
}

// BenchmarkMembankVectorLoad measures the event-driven bank simulator.
func BenchmarkMembankVectorLoad(b *testing.B) {
	s := membank.MustNew(64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		s.VectorLoad(uint64(i), 16, 64)
	}
}

// BenchmarkFFT2DTraced measures the traced four-step FFT kernel.
func BenchmarkFFT2DTraced(b *testing.B) {
	c, _ := cache.NewPrime(13)
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := make([]complex128, len(x))
		copy(y, x)
		if err := workloads.FFT2D(y, 64, 64, 0, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConjugateGradient measures the traced CG solver.
func BenchmarkConjugateGradient(b *testing.B) {
	a := workloads.NewMatrix(24, 24, 0)
	for i := 0; i < 24; i++ {
		for j := 0; j <= i; j++ {
			v := float64((i*7+j*3)%11) - 5
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		a.Set(i, i, a.At(i, i)+24)
	}
	rhs := workloads.NewVector(24, 100000)
	for i := range rhs.Data {
		rhs.Data[i] = float64(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := workloads.NewVector(24, 200000)
		if _, err := workloads.ConjugateGradient(a, rhs, x, 100, 1e-8, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVprocBlock measures the trace-level machine simulator per
// simulated block.
func BenchmarkVprocBlock(b *testing.B) {
	g := vcm.PrimeGeom(13)
	cfg := vproc.Config{
		Mach: vcm.DefaultMachine(64, 32),
		Work: vcm.VCM{B: 1024, R: 4, Pds: 0.25, P1S1: 0.25, P1S2: 0.25},
		Geom: &g,
		Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vproc.Run(cfg, 1024); err != nil {
			b.Fatal(err)
		}
	}
}
