package experiments

import (
	"fmt"

	"primecache/internal/cache"
	"primecache/internal/core"
	"primecache/internal/membank"
	"primecache/internal/report"
	"primecache/internal/trace"
	"primecache/internal/vcm"
)

// ProblemSizeTable is the Lam-style problem-size sensitivity study the
// paper's §1/§2.1 cite: a fixed 16×16 sub-block of a matrix is loaded and
// re-used for a sweep of leading dimensions, counting conflict misses.
// Fixed blocking spikes on pathological dimensions for *both* mappings
// (the prime modulus has its own bad residues, near 0, ±1 and C/2); the
// §4 recipe — adapt (b1, b2) to the leading dimension — is available only
// for the prime mapping and is conflict-free for every non-degenerate
// dimension. That asymmetry, not fixed-block behaviour, is the paper's
// sub-block claim.
func ProblemSizeTable() *report.Table {
	t := report.New("problem-size sensitivity: 16×16 sub-block reuse across leading dimensions",
		"P", "direct fixed conflicts", "prime fixed conflicts", "prime adaptive block", "prime adaptive conflicts")
	sweep := []int{997, 1009, 1016, 1024, 1031, 4090, 4094, 4096, 4100, 8188, 8192, 8200}
	for _, p := range sweep {
		dirFixed := subblockConflicts(core.MustDirect(1<<CacheExp), p, 16, 16)
		prmFixed := subblockConflicts(core.MustPrime(CacheExp), p, 16, 16)

		adaptive := "degenerate"
		adaptiveConf := "-"
		if b1, b2, err := vcm.MaxConflictFreeBlock(1<<CacheExp-1, p); err == nil {
			// Keep the adaptive footprint moderate (≤ 4096 words) so the
			// comparison is about shape, not size.
			for b1*b2 > 4096 && b2 > 1 {
				b2--
			}
			adaptive = fmt.Sprintf("%dx%d", b1, b2)
			adaptiveConf = fmt.Sprintf("%d", subblockConflicts(core.MustPrime(CacheExp), p, b1, b2))
		}
		t.MustAddRow(p, dirFixed, prmFixed, adaptive, adaptiveConf)
	}
	return t
}

func subblockConflicts(v *core.VectorCache, p, b1, b2 int) uint64 {
	for pass := 0; pass < 2; pass++ {
		if _, err := v.LoadSubblock(0, p, b1, b2, 1); err != nil {
			panic(err) // inputs are fixed and valid
		}
	}
	return v.Stats().Conflict
}

// LineSizeTable reproduces the §2.2 discussion: with the cache capacity
// fixed in bytes (64 KB), larger lines exploit unit-stride spatial
// locality but are pure pollution for non-unit strides — and they shrink
// the line count, inviting more interference. Line size is the one cache
// parameter with no safe setting, the paper's motivation for fixing one
// word per line and attacking the mapping instead.
func LineSizeTable() *report.Table {
	t := report.New("line-size effects at fixed 64 KB capacity (direct-mapped)",
		"line bytes", "lines", "unit-stride miss%", "stride-8 miss%", "stride-8 pollution words/miss")
	const capacityBytes = 64 << 10
	const n = 8192 // words per sweep
	for _, lb := range []int{8, 16, 32, 64} {
		lines := capacityBytes / lb
		mk := func() *cache.Cache {
			m, err := cache.NewDirectMapper(lines)
			if err != nil {
				panic(err)
			}
			return cache.MustNew(cache.Config{Mapper: m, Ways: 1, LineBytes: lb})
		}
		unit := mk()
		for pass := 0; pass < 2; pass++ {
			trace.Replay(unit, trace.Strided(0, 1, n, 1))
		}
		strided := mk()
		for pass := 0; pass < 2; pass++ {
			trace.Replay(strided, trace.Strided(0, 8, n, 1))
		}
		us, ss := unit.Stats(), strided.Stats()
		wordsPerLine := lb / 8
		pollution := 0.0
		if ss.Misses > 0 {
			// Each stride-8 miss loads wordsPerLine words; one is used.
			pollution = float64(wordsPerLine - 1)
		}
		t.MustAddRow(lb, lines, 100*us.MissRatio(), 100*ss.MissRatio(), pollution)
	}
	return t
}

// PrefetchTable compares the Fu & Patel prefetching schemes (§2.2's prior
// art) against the prime mapping on strided sweeps: stride prefetching
// rescues the direct-mapped cache's constant-stride misses, but the
// prime-mapped cache reaches the same place with no prefetch hardware,
// no wasted memory traffic, and no pollution.
func PrefetchTable() *report.Table {
	t := report.New("prefetching vs prime mapping (8 K lines, 2 passes over 4 K elements)",
		"stride", "direct miss%", "direct+seq miss%", "direct+stride miss%", "stride-pf wasted", "prime miss%")
	const n = 4096
	for _, stride := range []int64{1, 7, 64, 512} {
		direct := runStrided(plainCache(), stride, n)
		seq := runStrided(prefetchCache(cache.PrefetchSequential), stride, n)
		strP := prefetchCache(cache.PrefetchStride)
		str := runStrided(strP, stride, n)
		prime := core.MustPrime(CacheExp)
		for pass := 0; pass < 2; pass++ {
			prime.LoadVector(0, stride, n, 1)
		}
		t.MustAddRow(stride,
			100*direct.MissRatio(),
			100*seq.MissRatio(),
			100*str.MissRatio(),
			strP.PrefetchStats().Wasted,
			100*prime.Stats().MissRatio())
	}
	return t
}

func plainCache() *cache.Cache {
	c, err := cache.NewDirect(1 << CacheExp)
	if err != nil {
		panic(err)
	}
	return c
}

func prefetchCache(kind cache.PrefetchKind) *cache.PrefetchCache {
	p, err := cache.NewPrefetchCache(plainCache(), kind, 2)
	if err != nil {
		panic(err)
	}
	return p
}

// runStrided replays two passes of an n-element sweep of stride words
// on stream 1 through s and returns its demand statistics.
func runStrided(s cache.Sim, stride int64, n int) cache.Stats {
	for pass := 0; pass < 2; pass++ {
		trace.Replay(s, trace.Strided(0, stride, n, 1))
	}
	return s.Stats()
}

// PrimeMemoryTable contrasts the §2.3 lineage the paper cites: a prime
// number of memory *banks* (Budnik–Kuck, Burroughs BSP, Lawrie–Vora)
// versus conventional 2^m interleaving, measured by the event-driven bank
// simulator across stride classes. Prime banks fix the power-of-two
// strides but pay the modulo in the address path on every access — the
// cost the prime-mapped *cache* avoids via the Mersenne trick.
func PrimeMemoryTable() *report.Table {
	t := report.New("prime-banked memory vs 2^m interleaving (t_m = 16, 256-element loads, stalls/element)",
		"stride class", "64 banks", "61 banks (prime)")
	classes := []struct {
		name    string
		strides []int64
	}{
		{"unit", []int64{1}},
		{"odd 3..63", []int64{3, 5, 7, 9, 15, 21, 33, 63}},
		{"power-of-two 2..64", []int64{2, 4, 8, 16, 32, 64}},
		{"multiples of 61", []int64{61, 122}},
	}
	pow2 := membank.MustNew(64, 16)
	prime, err := membank.NewPrimeBanked(61, 16)
	if err != nil {
		panic(err)
	}
	const n = 256
	for _, cl := range classes {
		mean := func(s *membank.System) float64 {
			var total int64
			for _, st := range cl.strides {
				s.Reset()
				total += s.VectorLoad(0, st, n).StallCycles
			}
			return float64(total) / float64(len(cl.strides)) / n
		}
		t.MustAddRow(cl.name, mean(pow2), mean(prime))
	}
	return t
}

// AssociativityTable quantifies §2.1 ("Can associativity help?") two
// ways: the analytic average self-interference of a 4 K-element block
// across associativities, and a simulated strided-resweep conflict count.
// For the same capacity, raising the associativity shrinks the set count,
// so power-of-two strides reach exactly the same number of line frames —
// the marginal improvement the paper predicts — while the prime mapping
// removes the interference outright.
func AssociativityTable() *report.Table {
	t := report.New("§2.1 associativity study (8 K lines, B = 4 K, t_m = 32)",
		"organisation", "analytic I_s stalls", "simulated conflicts (stride-1024 resweep)")
	mach := vcm.DefaultMachine(64, 32)
	const b = 4096
	rows := []struct {
		name string
		geom vcm.CacheGeom
		mk   func() *core.VectorCache
	}{
		{"direct", vcm.DirectGeom(CacheExp), func() *core.VectorCache { return core.MustDirect(1 << CacheExp) }},
		{"2-way LRU", vcm.AssocGeom(CacheExp, 2), func() *core.VectorCache {
			v, err := core.NewSetAssoc(1<<CacheExp, 2, cache.LRU)
			if err != nil {
				panic(err)
			}
			return v
		}},
		{"4-way LRU", vcm.AssocGeom(CacheExp, 4), func() *core.VectorCache {
			v, err := core.NewSetAssoc(1<<CacheExp, 4, cache.LRU)
			if err != nil {
				panic(err)
			}
			return v
		}},
		{"8-way LRU", vcm.AssocGeom(CacheExp, 8), func() *core.VectorCache {
			v, err := core.NewSetAssoc(1<<CacheExp, 8, cache.LRU)
			if err != nil {
				panic(err)
			}
			return v
		}},
		{"prime", vcm.PrimeGeom(CacheExp), func() *core.VectorCache { return core.MustPrime(CacheExp) }},
	}
	for _, r := range rows {
		v := r.mk()
		for pass := 0; pass < 4; pass++ {
			if _, err := v.LoadVector(0, 1024, 2048, 1); err != nil {
				panic(err)
			}
		}
		t.MustAddRow(r.name, vcm.IsCExact(r.geom, mach, b, 0.25), v.Stats().Conflict)
	}
	return t
}

// MultiStreamTable reproduces Bailey's observation (cited in §1): a
// single unit-stride stream pipelines perfectly, but concurrent streams
// steal banks from each other, and the bank count needed to feed k
// streams grows far faster than k — the memory-side pressure that makes
// a cache attractive as the processor–memory gap widens.
func MultiStreamTable() *report.Table {
	t := report.New("multi-stream bank contention (unit-stride streams, 512 elements each, t_m = 32)",
		"streams", "64 banks: stalls/elem", "256 banks: stalls/elem", "1024 banks: stalls/elem")
	for _, k := range []int{1, 2, 4, 8, 16} {
		row := []interface{}{k}
		for _, banks := range []int{64, 256, 1024} {
			s := membank.MustNew(banks, 32)
			specs := make([]membank.StreamSpec, k)
			for i := range specs {
				specs[i] = membank.StreamSpec{Start: uint64(i * 7), Stride: 1, N: 512}
			}
			var total int64
			for _, r := range s.MultiLoad(specs) {
				total += r.StallCycles
			}
			row = append(row, float64(total)/float64(k)/512)
		}
		t.MustAddRow(row...)
	}
	return t
}

// WritePolicyTable quantifies the paper's write-buffer assumption: with
// separate write buses and buffers neither policy stalls the pipeline,
// but they differ sharply in memory write traffic. A blocked kernel that
// rewrites its output block R times sends R·B stores down the bus under
// write-through and ≈ B under write-back — the bandwidth the second read
// bus competes with.
func WritePolicyTable() *report.Table {
	t := report.New("write policy traffic on an 8-times-rewritten 4 K block (8 K-line caches)",
		"organisation", "stores issued", "memory writes", "traffic ratio")
	const b, reps = 4096, 8
	run := func(mapper cache.Mapper, wb bool) cache.Stats {
		c := cache.MustNew(cache.Config{Mapper: mapper, Ways: 1, WriteBack: wb})
		for pass := 0; pass < reps; pass++ {
			for w := uint64(0); w < b; w++ {
				c.Access(cache.Access{Addr: w * 8, Write: true, Stream: 1})
			}
		}
		// Drain: sweep a full cache-sized alias range so every dirty
		// line is evicted and write-back pays its deferred cost.
		for w := uint64(1 << (CacheExp + 1)); w < 1<<(CacheExp+1)+1<<CacheExp; w++ {
			c.Access(cache.Access{Addr: w * 8, Stream: 1})
		}
		return c.Stats()
	}
	dm, _ := cache.NewDirectMapper(1 << CacheExp)
	pm, _ := cache.NewPrimeMapper(CacheExp)
	for _, row := range []struct {
		name   string
		mapper cache.Mapper
		wb     bool
	}{
		{"direct write-through", dm, false},
		{"direct write-back", dm, true},
		{"prime write-back", pm, true},
	} {
		s := run(row.mapper, row.wb)
		ratio := float64(s.MemoryWrites) / float64(s.Writes)
		t.MustAddRow(row.name, s.Writes, s.MemoryWrites, ratio)
	}
	return t
}

// CacheSizeTable sweeps the cache size exponent: cycles/result of the
// direct- and prime-mapped CC-models at each Mersenne-prime-compatible
// size, with the MM-model as the horizontal reference. The prime
// advantage is not an artifact of the paper's 8 K-line point: it holds at
// every size where interference (not capacity) dominates, and shrinks
// only when the cache dwarfs the blocking factor.
func CacheSizeTable() *report.Table {
	t := report.New("cycles per result vs cache size (M=64, t_m=32, B=4K, R=B)",
		"c", "direct lines", "prime lines", "MM", "CC-direct", "CC-prime", "direct/prime")
	mach := vcm.DefaultMachine(64, 32)
	work := vcm.DefaultVCM(4096)
	const n = 1 << 20
	mm := vcm.CyclesPerResultMM(mach, work, n)
	for _, c := range []uint{13, 17, 19} {
		dg, pg := vcm.DirectGeom(c), vcm.PrimeGeom(c)
		dir := vcm.CyclesPerResultCC(dg, mach, work, n)
		prm := vcm.CyclesPerResultCC(pg, mach, work, n)
		t.MustAddRow(int(c), dg.Lines, pg.Lines, mm, dir, prm, dir/prm)
	}
	// Small caches (B > C): both designs are capacity-bound; include one
	// row to show the regime boundary.
	smallWork := vcm.DefaultVCM(64)
	mmSmall := vcm.CyclesPerResultMM(mach, smallWork, n)
	dg, pg := vcm.DirectGeom(7), vcm.PrimeGeom(7)
	t.MustAddRow(7, dg.Lines, pg.Lines, mmSmall,
		vcm.CyclesPerResultCC(dg, mach, smallWork, n),
		vcm.CyclesPerResultCC(pg, mach, smallWork, n),
		vcm.CyclesPerResultCC(dg, mach, smallWork, n)/vcm.CyclesPerResultCC(pg, mach, smallWork, n))
	return t
}

// ReplacementTable addresses §2.1's open question — "serial access to
// vectors dictates against LRU replacement … whether there exists a
// better replacement algorithm needs further study" — with the classic
// cyclic-thrash experiment: a strided vector whose per-set footprint
// slightly exceeds the associativity is re-swept. LRU (and FIFO) evict
// exactly the line about to be needed and score zero reuse hits; Random
// keeps a fraction alive. The prime-mapped direct cache sidesteps the
// question entirely: the same sweep fits without any replacement policy.
func ReplacementTable() *report.Table {
	t := report.New("§2.1 replacement study: cyclic re-sweep, per-set footprint = ways+2 (8 K lines)",
		"organisation", "reuse-pass hit%", "conflict misses")
	// 8-way, 1024 sets: stride 1024 maps everything to set 0; 10 lines
	// cycle through 8 ways.
	const n, stride, passes = 10, 1024, 12
	run := func(policy cache.Policy) cache.Stats {
		c, err := cache.NewSetAssoc(1<<CacheExp, 8, policy)
		if err != nil {
			panic(err)
		}
		for p := 0; p < passes; p++ {
			for i := 0; i < n; i++ {
				c.Access(cache.Access{Addr: uint64(i*stride) * 8, Stream: 1})
			}
		}
		return c.Stats()
	}
	hitPct := func(s cache.Stats) float64 {
		// Exclude the compulsory pass: hits over the reuse accesses.
		reuse := float64(s.Accesses - uint64(n))
		if reuse <= 0 {
			return 0
		}
		return 100 * float64(s.Hits) / reuse
	}
	for _, row := range []struct {
		name   string
		policy cache.Policy
	}{{"8-way LRU", cache.LRU}, {"8-way FIFO", cache.FIFO}, {"8-way Random", cache.Random}} {
		s := run(row.policy)
		t.MustAddRow(row.name, hitPct(s), s.Conflict)
	}
	prime := core.MustPrime(CacheExp)
	for p := 0; p < passes; p++ {
		prime.LoadVector(0, stride, n, 1)
	}
	ps := prime.Stats()
	t.MustAddRow("prime direct", 100*float64(ps.Hits)/float64(ps.Accesses-uint64(n)), ps.Conflict)
	return t
}

// AlgorithmTable evaluates the paper's §3.1 named algorithm presets —
// blocked matrix multiply (B = b², R = b), blocked LU (R = 3b/2), blocked
// FFT (R = log₂ b), row/column and diagonal accesses — on the three
// machines, the per-application view of the evaluation.
func AlgorithmTable() *report.Table {
	t := report.New("§3.1 algorithm presets, cycles per result (M=64, t_m=32)",
		"algorithm", "VCM [B R Pds P1]", "MM", "CC-direct", "CC-prime", "direct/prime")
	mach := vcm.DefaultMachine(64, 32)
	const n = 1 << 20
	rows := []struct {
		name string
		mk   func() (vcm.VCM, error)
	}{
		{"matmul b=64", func() (vcm.VCM, error) { return vcm.MatMulVCM(64) }},
		{"LU b=64", func() (vcm.VCM, error) { return vcm.LUVCM(64) }},
		{"FFT b=4096", func() (vcm.VCM, error) { return vcm.FFTVCM(4096) }},
		{"row/col b=4096 r=64", func() (vcm.VCM, error) { return vcm.RowColumnVCM(4096, 64) }},
		{"diagonal b=4096 r=64", func() (vcm.VCM, error) { return vcm.DiagonalVCM(4096, 64) }},
	}
	dg, pg := vcm.DirectGeom(CacheExp), vcm.PrimeGeom(CacheExp)
	for _, r := range rows {
		v, err := r.mk()
		if err != nil {
			panic(err)
		}
		desc := fmt.Sprintf("[%d %d %.3f %.2f]", v.B, v.R, v.Pds, v.P1S1)
		mm := vcm.CyclesPerResultMM(mach, v, n)
		dir := vcm.CyclesPerResultCC(dg, mach, v, n)
		prm := vcm.CyclesPerResultCC(pg, mach, v, n)
		t.MustAddRow(r.name, desc, mm, dir, prm, dir/prm)
	}
	return t
}

// TornadoTable is the one-at-a-time sensitivity analysis of the analytic
// model at the Figure-7 operating point, for both cache mappings: which
// parameter moves cycles-per-result the most. For the direct map the
// stride distribution is a first-order effect; the prime map's only
// material lever is the double-stream fraction — the model's statement
// that prime mapping removed the stride sensitivity.
func TornadoTable() *report.Table {
	t := report.New("sensitivity of cycles/result to ±25% parameter excursions (M=64, t_m=32, B=4K)",
		"parameter", "direct swing", "prime swing")
	mach := vcm.DefaultMachine(64, 32)
	work := vcm.DefaultVCM(4096)
	const n = 1 << 20
	dEntries, err := vcm.Sensitivity(vcm.DirectGeom(CacheExp), mach, work, n, 0.25)
	if err != nil {
		panic(err)
	}
	pEntries, err := vcm.Sensitivity(vcm.PrimeGeom(CacheExp), mach, work, n, 0.25)
	if err != nil {
		panic(err)
	}
	for i := range dEntries {
		t.MustAddRow(dEntries[i].Parameter, dEntries[i].Swing(), pEntries[i].Swing())
	}
	return t
}
