// Package primecache is a library reproduction of Yang & Wu, "A Novel
// Cache Design for Vector Processing" (ISCA 1992): the prime-mapped vector
// cache, its Mersenne address-generation datapath, the conventional cache
// organisations it is compared against, the interleaved-memory machine
// models, the paper's analytical performance model, and the experiment
// harness that regenerates every figure of the evaluation.
//
// The root package is a facade over the implementation packages:
//
//   - Cache simulation and the prime-mapped device: NewPrimeCache,
//     NewDirectCache, NewSetAssocCache, NewFullyAssocCache (vector-level
//     API with strided loads, interference attribution, and adder-cost
//     accounting).
//   - Analytical model: Machine, Workload (the paper's VCM tuple),
//     DirectGeometry/PrimeGeometry, and the CyclesPerResult* evaluators.
//   - Experiments: Figures, SubblockTable, CrossCheckTable, SummaryTable.
//
// A minimal session:
//
//	vc, _ := primecache.NewPrimeCache(13) // 8191 lines, the paper's size
//	res, _ := vc.LoadVector(0, 512, 4096, 1)
//	fmt.Println(res.Misses, vc.Stats())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package primecache

import (
	"primecache/internal/blocking"
	"primecache/internal/cache"
	"primecache/internal/core"
	"primecache/internal/experiments"
	"primecache/internal/report"
	"primecache/internal/vcm"
	"primecache/internal/workloads"
)

// VectorCache is the vector-level cache device (see internal/core).
type VectorCache = core.VectorCache

// VectorResult summarises one vector operation.
type VectorResult = core.VectorResult

// Stats is the cache statistics record, including the three-C miss split
// and self/cross interference attribution.
type Stats = cache.Stats

// Policy selects a set-associative replacement policy.
type Policy = cache.Policy

// Access is one memory reference presented to a cache (byte address,
// read/write, stream id).
type Access = cache.Access

// Cache is the low-level set-associative cache simulator behind
// VectorCache, for callers that drive raw references.
type Cache = cache.Cache

// Replacement policies.
const (
	LRU    = cache.LRU
	FIFO   = cache.FIFO
	Random = cache.Random
)

// NewPrimeCache returns the paper's design: a prime-mapped vector cache of
// 2^c − 1 one-word lines (c ∈ {2,3,5,7,13,17,19,31}). The paper's
// configuration is c = 13.
func NewPrimeCache(c uint) (*VectorCache, error) { return core.NewPrime(c) }

// NewDirectCache returns a direct-mapped vector cache of lines lines (a
// power of two).
func NewDirectCache(lines int) (*VectorCache, error) { return core.NewDirect(lines) }

// NewSetAssocCache returns an n-way set-associative baseline.
func NewSetAssocCache(lines, ways int, policy Policy) (*VectorCache, error) {
	return core.NewSetAssoc(lines, ways, policy)
}

// NewFullyAssocCache returns a fully-associative LRU baseline.
func NewFullyAssocCache(lines int) (*VectorCache, error) { return core.NewFullyAssoc(lines) }

// SkewedCache is the two-way skewed-associative (XOR-hashed) baseline.
type SkewedCache = cache.SkewedCache

// NewSkewedCache returns a two-way skewed-associative cache of lines
// lines — conflict dispersion by hashing, the historical alternative to
// conflict elimination by prime mapping.
func NewSkewedCache(lines int) (*SkewedCache, error) { return cache.NewSkewed(lines) }

// PrefetchCache front-ends a cache with a Fu & Patel prefetcher.
type PrefetchCache = cache.PrefetchCache

// Prefetching schemes.
const (
	PrefetchSequential = cache.PrefetchSequential
	PrefetchStride     = cache.PrefetchStride
)

// NewPrefetchDirectCache returns a direct-mapped cache of lines lines
// front-ended by the given prefetcher fetching degree lines ahead.
func NewPrefetchDirectCache(lines int, kind cache.PrefetchKind, degree int) (*PrefetchCache, error) {
	c, err := cache.NewDirect(lines)
	if err != nil {
		return nil, err
	}
	return cache.NewPrefetchCache(c, kind, degree)
}

// Machine is the analytical machine model (M banks, t_m, MVL).
type Machine = vcm.Machine

// Workload is the paper's seven-tuple vector computation model.
type Workload = vcm.VCM

// CacheGeometry selects the CC-model cache for the analytical model.
type CacheGeometry = vcm.CacheGeom

// DefaultMachine returns the paper's machine parameters (MVL = 64,
// T_start = 30 + t_m).
func DefaultMachine(banks, tm int) Machine { return vcm.DefaultMachine(banks, tm) }

// DefaultWorkload returns the random-stride figure workload (R = B,
// P_ds = P_stride1 = 0.25).
func DefaultWorkload(b int) Workload { return vcm.DefaultVCM(b) }

// DirectGeometry returns a direct-mapped analytical cache of 2^c lines.
func DirectGeometry(c uint) CacheGeometry { return vcm.DirectGeom(c) }

// PrimeGeometry returns a prime-mapped analytical cache of 2^c − 1 lines.
func PrimeGeometry(c uint) CacheGeometry { return vcm.PrimeGeom(c) }

// CyclesPerResultMM evaluates the cacheless machine model (Eqs. 1–3).
func CyclesPerResultMM(m Machine, w Workload, n int) float64 {
	return vcm.CyclesPerResultMM(m, w, n)
}

// CyclesPerResultCC evaluates the cache machine model (Eqs. 4–8).
func CyclesPerResultCC(g CacheGeometry, m Machine, w Workload, n int) float64 {
	return vcm.CyclesPerResultCC(g, m, w, n)
}

// MaxConflictFreeBlock returns the §4 conflict-free sub-block (b1, b2) of
// a matrix with leading dimension p for a prime cache of c lines.
func MaxConflictFreeBlock(c, p int) (b1, b2 int, err error) {
	return vcm.MaxConflictFreeBlock(c, p)
}

// Figure is one reproduced evaluation figure.
type Figure = experiments.Figure

// Table is a renderable result table.
type Table = report.Table

// Figures regenerates every figure of the paper's evaluation.
func Figures() []Figure { return experiments.All() }

// SubblockTable regenerates the §4 sub-block demonstration.
func SubblockTable() *Table { return experiments.SubblockTable() }

// CrossCheckTable compares the analytic model against the cycle-level
// simulator.
func CrossCheckTable() *Table { return experiments.CrossCheck() }

// SummaryTable reports the headline paper-versus-measured ratios.
func SummaryTable() *Table { return experiments.Summary() }

// ProblemSizeTable regenerates the Lam-style problem-size sensitivity
// study (fixed vs §4-adaptive blocking across leading dimensions).
func ProblemSizeTable() *Table { return experiments.ProblemSizeTable() }

// LineSizeTable regenerates the §2.2 line-size/pollution study.
func LineSizeTable() *Table { return experiments.LineSizeTable() }

// PrefetchTable regenerates the Fu & Patel prefetching comparison.
func PrefetchTable() *Table { return experiments.PrefetchTable() }

// PrimeMemoryTable regenerates the prime-banked-memory comparison (the
// §2.3 Budnik–Kuck/BSP lineage).
func PrimeMemoryTable() *Table { return experiments.PrimeMemoryTable() }

// AssociativityTable regenerates the §2.1 associativity study.
func AssociativityTable() *Table { return experiments.AssociativityTable() }

// MultiStreamTable regenerates the Bailey multi-stream bank-contention
// study cited in §1.
func MultiStreamTable() *Table { return experiments.MultiStreamTable() }

// WritePolicyTable regenerates the write-through/write-back traffic
// comparison behind the paper's write-buffer assumption.
func WritePolicyTable() *Table { return experiments.WritePolicyTable() }

// CacheSizeTable regenerates the cache-size design-space sweep.
func CacheSizeTable() *Table { return experiments.CacheSizeTable() }

// ReplacementTable regenerates the §2.1 replacement-policy study (LRU vs
// FIFO vs Random vs prime on cyclic vector reuse).
func ReplacementTable() *Table { return experiments.ReplacementTable() }

// AlgorithmTable evaluates the paper's §3.1 named algorithm presets on
// the three machines.
func AlgorithmTable() *Table { return experiments.AlgorithmTable() }

// MatMulWorkload, LUWorkload and FFTWorkload return the §3.1 presets.
func MatMulWorkload(b int) (Workload, error) { return vcm.MatMulVCM(b) }

// LUWorkload returns the blocked-LU preset (R = 3b/2).
func LUWorkload(b int) (Workload, error) { return vcm.LUVCM(b) }

// FFTWorkload returns the blocked-FFT preset (R = log2 b).
func FFTWorkload(b int) (Workload, error) { return vcm.FFTVCM(b) }

// KernelTable runs the kernel benchmark suite across cache organisations.
func KernelTable() *Table { return experiments.KernelTable() }

// BlockChoice is a blocking recommendation from ChooseBlocking.
type BlockChoice = blocking.Choice

// ChooseBlocking recommends a sub-block shape for a matrix with leading
// dimension p on cache geometry g, capping the footprint at maxWords
// (0 = whole cache). For prime-mapped geometries the §4 recipe applies
// to every leading dimension; bit-selection geometries degrade to
// single-column blocks when p is a multiple of the set count.
func ChooseBlocking(g CacheGeometry, p, maxWords int) (BlockChoice, error) {
	return blocking.Choose(g, p, maxWords)
}

// Matrix is a column-major matrix bound to a word address range, usable
// as an operand of the blocked kernels.
type Matrix = workloads.Matrix

// Memory receives kernel memory references; (*VectorCache).Cache()
// satisfies it, as does any cache built by this package. A kernel hands
// a cache its references in batches through AccessBatch, the last
// before it returns, and any other Memory one Access at a time; either
// sees the same references in the same order.
type Memory = workloads.Memory

// NewMatrix allocates a rows×cols zero matrix based at word address
// baseWord.
func NewMatrix(rows, cols int, baseWord uint64) *Matrix {
	return workloads.NewMatrix(rows, cols, baseWord)
}

// NewMatrixLD allocates a rows×cols matrix addressed as a sub-block of a
// larger array with leading dimension ld.
func NewMatrixLD(rows, cols, ld int, baseWord uint64) *Matrix {
	return workloads.NewMatrixLD(rows, cols, ld, baseWord)
}

// BlockedMatMul computes c = a·b with blk×blk blocking, tracing every
// reference into mem (nil to skip tracing).
func BlockedMatMul(a, b, c *Matrix, blk int, mem Memory) error {
	return workloads.BlockedMatMul(a, b, c, blk, mem)
}

// BlockedLU factors a in place (no pivoting) with blocked elimination.
func BlockedLU(a *Matrix, blk int, mem Memory) error {
	return workloads.BlockedLU(a, blk, mem)
}

// FFT2D performs the §4 blocked (four-step) FFT of x viewed as a B2×B1
// column-major matrix; the DFT appears in transposed order.
func FFT2D(x []complex128, b1, b2 int, baseWord uint64, mem Memory) error {
	return workloads.FFT2D(x, b1, b2, baseWord, mem)
}

// SAXPY computes y ← α·x + y with the given word strides, tracing the
// double-stream access pattern.
func SAXPY(alpha float64, x, y []float64, baseX, baseY uint64, strideX, strideY int64, n int, mem Memory) error {
	return workloads.SAXPY(alpha, x, y, baseX, baseY, strideX, strideY, n, mem)
}
