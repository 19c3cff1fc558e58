package main

import (
	"math/rand"

	"primecache/internal/cache"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// Every workload's inputs come from its seed, and the seed only
// permutes order and shifts start addresses: the class of operation
// seq, and so the work it does, is fixed by construction (round-robin
// over a fixed menu). Two seeds therefore issue the same per-class
// operation counts and simulate the same number of references.

// period is the least common multiple of the set counts of every
// organisation the menus use: 127 and 8191 (prime-mapped), and 8192
// (direct, victim; the 2048- and 1024-set assoc caches divide it, and
// the fully associative cache has one set). Shifting a job by a
// multiple of period words leaves every set index unchanged, so all instances of one service job class
// run the same set-index sequence and must report identical
// statistics, while their memo keys, tags and host-side hash keys
// differ.
const period = 127 * 8191 * 8192

// seedBase maps a seed to the first instance number it uses, so
// different seeds touch different addresses.
func seedBase(seed int64) uint64 {
	return uint64(rand.New(rand.NewSource(seed)).Intn(1 << 10))
}

// seedPerm is a seed-dependent permutation of [0, n).
func seedPerm(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)
}

// kernelOrgs are the seven cache.Spec organisations at the paper's
// size (2^13 − 1 prime-mapped lines, 8192 conventional lines). The
// fully-associative cache is 64 lines: its simulator scans every way
// on each access, and at 512 ways it already took two thirds of a
// round.
var kernelOrgs = []struct {
	label string
	spec  cache.Spec
}{
	{"prime", cache.Spec{Kind: "prime", C: 13}},
	{"direct", cache.Spec{Kind: "direct", Lines: 8192}},
	{"assoc", cache.Spec{Kind: "assoc", Lines: 8192, Ways: 4}},
	{"full", cache.Spec{Kind: "full", Lines: 64}},
	{"prime-assoc", cache.Spec{Kind: "prime-assoc", C: 13, Ways: 2}},
	{"skewed", cache.Spec{Kind: "skewed", Lines: 8192}},
	{"victim", cache.Spec{Kind: "victim", Lines: 8192}},
}

// kernelPatterns is the pattern menu, 2048 references per pass each:
// the paper's power-of-two stride, a 32×64 sub-block, the blocked FFT's
// stride-B2 phase, a column-then-row sweep and a matrix diagonal.
var kernelPatterns = []trace.Pattern{
	{Name: "strided", Stride: 512, N: 2048},
	{Name: "subblock", B1: 32, B2: 64},
	{Name: "fft", N: 2048, B2: 32},
	{Name: "rowcol", N: 2048},
	{Name: "diagonal", N: 2048},
}

const kernelPasses = 4

// Sizes of the per-access kernels: 24×24 matrices in 8×8 blocks and a
// 32×32 blocked FFT.
const (
	kernelN   = 24
	kernelBlk = 8
	fftB1     = 32
	fftB2     = 32
)

// kernelJob is one item of a kernels round: a pattern replayed through
// one organisation (batch path), or a numerical kernel emitting its
// references through Sim.Access (per-access path).
type kernelJob struct {
	name string
	org  int // index into kernelOrgs
	pat  trace.Pattern
	kern string // "matmul", "lu" or "fft2d"; empty for replay jobs
}

// kernelMenu lists a round's jobs in canonical order: every pattern
// through every organisation, then the three kernels through the
// prime-mapped and direct-mapped caches.
func kernelMenu() []kernelJob {
	var jobs []kernelJob
	for pi, p := range kernelPatterns {
		for oi, o := range kernelOrgs {
			jobs = append(jobs, kernelJob{name: "replay/" + p.Name + "/" + o.label, org: oi, pat: kernelPatterns[pi]})
		}
	}
	for _, k := range []string{"matmul", "lu", "fft2d"} {
		for _, oi := range []int{0, 1} {
			jobs = append(jobs, kernelJob{name: "kernel/" + k + "/" + kernelOrgs[oi].label, org: oi, kern: k})
		}
	}
	return jobs
}

// jobClass is one slot of the service menu: a simulate job, answered
// by the server's vector front end (strided and diagonal patterns on
// vector-capable caches), by trace replay (every other pattern) or in
// closed form (strided sweeps of at least 2^22 references on a prime
// or direct cache), or a job of the analytic VCM model.
type jobClass struct {
	name     string
	sim      *server.SimulateRequest
	model    *server.ModelRequest
	analytic bool
}

var (
	prime13 = cache.Spec{Kind: "prime", C: 13}
	prime7  = cache.Spec{Kind: "prime", C: 7}
)

// serviceMenu is the fixed menu of the service workloads; operations
// go round-robin over it, so each slot is a fixed share of the traffic.
//
// The vector and model slots are the request bodies API.md and
// TUTORIAL.md show, each once: strided(512)×4096 on the prime-mapped
// cache with 4 passes (API.md, TUTORIAL §7) and on the direct-mapped
// cache (TUTORIAL §7's sweep), strided(17)×8192 on a 4096-line 4-way
// cache with 2 passes (TUTORIAL §14), strided(3)×4096 (TUTORIAL §15),
// and the model at tm = 16, 64 and 128 (TUTORIAL §7 and §11).
//
// The documentation shows no job for the replay or closed-form paths,
// so those slots are assumed. The replay slots run the paper's other
// patterns (sub-block, blocked-FFT phase, column-then-row sweep) at the
// documented job's size, 4096 references × 4 passes. The closed-form
// slot is the smallest job that qualifies, 2^22 references, on a
// 127-line prime-mapped cache, because the output check replays all of
// them through the reference simulator.
//
// The model jobs are far cheaper than the simulated ones, and the
// p50 and p90 of a mix are steady only when they fall inside one
// class's latency mode, not between two. So the model and closed-form
// slots stay below half of the menu and the simulate slots above it.
var serviceMenu = []jobClass{
	{name: "vector/strided512/prime", sim: &server.SimulateRequest{Cache: prime13,
		Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 4096}, Passes: 4}},
	{name: "vector/strided512/direct", sim: &server.SimulateRequest{Cache: cache.Spec{Kind: "direct", Lines: 8192},
		Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 4096}}},
	{name: "vector/strided17/assoc", sim: &server.SimulateRequest{Cache: cache.Spec{Kind: "assoc", Lines: 4096, Ways: 4},
		Pattern: trace.Pattern{Name: "strided", Stride: 17, N: 8192, Stream: 1}, Passes: 2}},
	{name: "vector/strided3/prime", sim: &server.SimulateRequest{Cache: prime13,
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 4096}}},
	{name: "replay/subblock/prime", sim: &server.SimulateRequest{Cache: prime13,
		Pattern: trace.Pattern{Name: "subblock", B1: 64, B2: 64}, Passes: 4}},
	{name: "replay/fft/victim", sim: &server.SimulateRequest{Cache: cache.Spec{Kind: "victim", Lines: 8192},
		Pattern: trace.Pattern{Name: "fft", N: 4096, B2: 64}, Passes: 4}},
	{name: "replay/rowcol/prime-assoc", sim: &server.SimulateRequest{Cache: cache.Spec{Kind: "prime-assoc", C: 13, Ways: 2},
		Pattern: trace.Pattern{Name: "rowcol", N: 4096}, Passes: 4}},
	{name: "analytic/strided/prime7", analytic: true, sim: &server.SimulateRequest{Cache: prime7,
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 64}, Passes: 1 << 16}},
	{name: "model/tm16", model: &server.ModelRequest{Banks: 64, Tm: 16, B: 4096}},
	{name: "model/tm64", model: &server.ModelRequest{Banks: 64, Tm: 64, B: 4096}},
	{name: "model/tm128", model: &server.ModelRequest{Banks: 64, Tm: 128, B: 4096}},
}

// serviceJob returns instance k of menu class c: the class template
// shifted by k·period words (a model job asks for problem size
// 2^20 + k instead, 2^20 being the size the model assumes when none is
// given). Distinct k give distinct memo keys.
func serviceJob(c int, k uint64) server.SweepJob {
	cl := serviceMenu[c]
	if cl.model != nil {
		m := *cl.model
		m.N = 1<<20 + int(k)
		return server.SweepJob{Model: &m}
	}
	s := *cl.sim
	s.Pattern.Start = k * period
	return server.SweepJob{Simulate: &s}
}

// classRefs is the number of references one job of class c simulates
// (zero when it is answered in closed form or by the model).
func classRefs(c int) uint64 {
	cl := serviceMenu[c]
	if cl.sim == nil || cl.analytic {
		return 0
	}
	return uint64(cl.sim.Pattern.RefCount()) * uint64(cl.sim.Passes)
}

// coldJob is operation seq of service-cold: round-robin over the menu,
// every operation a fresh instance.
func coldJob(seed int64, seq int) (class int, job server.SweepJob) {
	class = seq % len(serviceMenu)
	return class, serviceJob(class, seedBase(seed)+uint64(seq/len(serviceMenu)))
}

// hotConditional reports whether service-hot operation seq is a
// conditional request: a fixed quarter of the operations.
func hotConditional(seq int) bool { return seq%4 == 3 }

// Cluster-sweep memoizes clusterInstances instances of every class, and
// each operation sweeps clusterSweep consecutive jobs of that table:
// three of every class, so a sweep carries the menu's mix. The sweeps
// the documentation shows have 2 to 4 jobs; on 3 backends such a
// sweep reaches 1 to 3 of them, depending on where the seed's keys
// hash, which would make the legs per sweep, and with them the
// latency, differ from seed to seed. A 33-job sweep misses a backend
// with probability 3·(2/3)^33, under 1e-5. The table holds four
// sweeps, so consecutive operations send different keys.
const (
	clusterInstances = 12
	clusterSweep     = 33
)

// clusterWindow is the list of job-table indices operation seq sweeps.
func clusterWindow(seq int) []int {
	total := clusterInstances * len(serviceMenu)
	idx := make([]int, clusterSweep)
	for i := range idx {
		idx[i] = (seq*clusterSweep + i) % total
	}
	return idx
}
