package server

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/trace"
	"primecache/internal/workloads"
)

// pinnedStats pins, per ResultEpoch, the exact statistics every cache
// organisation of cache.SpecKinds() reports on the kernels benchmark's
// jobs (perfbench/jobs.go): its five patterns, 4 passes each, at the
// kernels workload's cache sizes, and its blocked matmul, LU and FFT2D
// on the prime- and direct-mapped caches. A victim cache's entry also
// pins its VictimStats. Every value is the "%+v" of the statistics.
//
// A change to the simulator that moves any statistic changes what the
// service answers, so it fails here until ResultEpoch is bumped and a
// table for the new epoch is added below the old one.
var pinnedStats = map[int]map[string]string{
	2: {
		"kernel/fft2d/direct":         "{Accesses:25600 Reads:12800 Writes:12800 Hits:24576 Misses:1024 Compulsory:1024 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:12800}",
		"kernel/fft2d/prime":          "{Accesses:25600 Reads:12800 Writes:12800 Hits:24576 Misses:1024 Compulsory:1024 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:12800}",
		"kernel/lu/direct":            "{Accesses:14016 Reads:9416 Writes:4600 Hits:13440 Misses:576 Compulsory:576 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:4600}",
		"kernel/lu/prime":             "{Accesses:14016 Reads:9416 Writes:4600 Hits:13440 Misses:576 Compulsory:576 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:4600}",
		"kernel/matmul/direct":        "{Accesses:43200 Reads:29376 Writes:13824 Hits:36967 Misses:6233 Compulsory:1728 Capacity:0 Conflict:4505 SelfInterference:0 CrossInterference:4505 Evictions:5657 Writebacks:0 MemoryWrites:13824}",
		"kernel/matmul/prime":         "{Accesses:43200 Reads:29376 Writes:13824 Hits:38565 Misses:4635 Compulsory:1728 Capacity:0 Conflict:2907 SelfInterference:0 CrossInterference:2907 Evictions:4043 Writebacks:0 MemoryWrites:13824}",
		"replay/diagonal/assoc":       "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/diagonal/direct":      "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/diagonal/full":        "{Accesses:8192 Reads:8192 Writes:0 Hits:0 Misses:8192 Compulsory:2048 Capacity:6144 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:8128 Writebacks:0 MemoryWrites:0}",
		"replay/diagonal/prime":       "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/diagonal/prime-assoc": "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/diagonal/skewed":      "{Accesses:8192 Reads:8192 Writes:0 Hits:6093 Misses:2099 Compulsory:2048 Capacity:0 Conflict:51 SelfInterference:51 CrossInterference:0 Evictions:57 Writebacks:0 MemoryWrites:0}",
		"replay/diagonal/victim":      "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0} {SwapHits:0 TrueMisses:2048}",
		"replay/fft/assoc":            "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/fft/direct":           "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/fft/full":             "{Accesses:8192 Reads:8192 Writes:0 Hits:0 Misses:8192 Compulsory:2048 Capacity:6144 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:8128 Writebacks:0 MemoryWrites:0}",
		"replay/fft/prime":            "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/fft/prime-assoc":      "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/fft/skewed":           "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/fft/victim":           "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0} {SwapHits:0 TrueMisses:2048}",
		"replay/rowcol/assoc":         "{Accesses:8192 Reads:8192 Writes:0 Hits:2884 Misses:5308 Compulsory:2047 Capacity:0 Conflict:3261 SelfInterference:2877 CrossInterference:384 Evictions:3836 Writebacks:0 MemoryWrites:0}",
		"replay/rowcol/direct":        "{Accesses:8192 Reads:8192 Writes:0 Hits:2884 Misses:5308 Compulsory:2047 Capacity:0 Conflict:3261 SelfInterference:2877 CrossInterference:384 Evictions:3836 Writebacks:0 MemoryWrites:0}",
		"replay/rowcol/full":          "{Accesses:8192 Reads:8192 Writes:0 Hits:0 Misses:8192 Compulsory:2047 Capacity:6145 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:8128 Writebacks:0 MemoryWrites:0}",
		"replay/rowcol/prime":         "{Accesses:8192 Reads:8192 Writes:0 Hits:5377 Misses:2815 Compulsory:2047 Capacity:0 Conflict:768 SelfInterference:0 CrossInterference:768 Evictions:896 Writebacks:0 MemoryWrites:0}",
		"replay/rowcol/prime-assoc":   "{Accesses:8192 Reads:8192 Writes:0 Hits:6145 Misses:2047 Compulsory:2047 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/rowcol/skewed":        "{Accesses:8192 Reads:8192 Writes:0 Hits:6085 Misses:2107 Compulsory:2047 Capacity:0 Conflict:60 SelfInterference:52 CrossInterference:8 Evictions:69 Writebacks:0 MemoryWrites:0}",
		"replay/rowcol/victim":        "{Accesses:8192 Reads:8192 Writes:0 Hits:2884 Misses:5308 Compulsory:2047 Capacity:0 Conflict:3261 SelfInterference:2877 CrossInterference:384 Evictions:3836 Writebacks:0 MemoryWrites:0} {SwapHits:0 TrueMisses:5308}",
		"replay/strided/assoc":        "{Accesses:8192 Reads:8192 Writes:0 Hits:0 Misses:8192 Compulsory:2048 Capacity:0 Conflict:6144 SelfInterference:6144 CrossInterference:0 Evictions:8176 Writebacks:0 MemoryWrites:0}",
		"replay/strided/direct":       "{Accesses:8192 Reads:8192 Writes:0 Hits:0 Misses:8192 Compulsory:2048 Capacity:0 Conflict:6144 SelfInterference:6144 CrossInterference:0 Evictions:8176 Writebacks:0 MemoryWrites:0}",
		"replay/strided/full":         "{Accesses:8192 Reads:8192 Writes:0 Hits:0 Misses:8192 Compulsory:2048 Capacity:6144 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:8128 Writebacks:0 MemoryWrites:0}",
		"replay/strided/prime":        "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/strided/prime-assoc":  "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/strided/skewed":       "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/strided/victim":       "{Accesses:8192 Reads:8192 Writes:0 Hits:0 Misses:8192 Compulsory:2048 Capacity:0 Conflict:6144 SelfInterference:6144 CrossInterference:0 Evictions:8176 Writebacks:0 MemoryWrites:0} {SwapHits:0 TrueMisses:8192}",
		"replay/subblock/assoc":       "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/subblock/direct":      "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/subblock/full":        "{Accesses:8192 Reads:8192 Writes:0 Hits:0 Misses:8192 Compulsory:2048 Capacity:6144 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:8128 Writebacks:0 MemoryWrites:0}",
		"replay/subblock/prime":       "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/subblock/prime-assoc": "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/subblock/skewed":      "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0}",
		"replay/subblock/victim":      "{Accesses:8192 Reads:8192 Writes:0 Hits:6144 Misses:2048 Compulsory:2048 Capacity:0 Conflict:0 SelfInterference:0 CrossInterference:0 Evictions:0 Writebacks:0 MemoryWrites:0} {SwapHits:0 TrueMisses:2048}",
	},
}

// pinnedSpecs are the kernels workload's cache of each kind.
var pinnedSpecs = map[string]cache.Spec{
	"prime":       {Kind: "prime", C: 13},
	"direct":      {Kind: "direct", Lines: 8192},
	"assoc":       {Kind: "assoc", Lines: 8192, Ways: 4},
	"full":        {Kind: "full", Lines: 64},
	"prime-assoc": {Kind: "prime-assoc", C: 13, Ways: 2},
	"skewed":      {Kind: "skewed", Lines: 8192},
	"victim":      {Kind: "victim", Lines: 8192},
}

// pinnedPatterns are the kernels workload's patterns, 2048 references
// per pass each.
var pinnedPatterns = []trace.Pattern{
	{Name: "strided", Stride: 512, N: 2048},
	{Name: "subblock", B1: 32, B2: 64},
	{Name: "fft", N: 2048, B2: 32},
	{Name: "rowcol", N: 2048},
	{Name: "diagonal", N: 2048},
}

// pinnedKernel runs one of the kernels workload's numerical kernels,
// 24×24 matrices in 8×8 blocks or a 32×32 blocked FFT, into mem.
func pinnedKernel(name string, mem workloads.Memory) error {
	const n, blk = 24, 8
	a := workloads.NewMatrix(n, n, 0)
	b := workloads.NewMatrix(n, n, 1<<16)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64((i*7+j*3)%11)-5)
			b.Set(i, j, float64((i*5+j*13)%17)/4-2)
		}
	}
	switch name {
	case "matmul":
		return workloads.BlockedMatMul(a, b, workloads.NewMatrix(n, n, 2<<16), blk, mem)
	case "lu":
		lu := workloads.NewMatrix(n, n, 3<<16)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := float64((i*3+j*11)%7) - 3
				if i == j {
					v += 4 * n // diagonally dominant: LU needs no pivoting
				}
				lu.Set(i, j, v)
			}
		}
		return workloads.BlockedLU(lu, blk, mem)
	default: // "fft2d"
		return workloads.FFT2D(make([]complex128, 32*32), 32, 32, 4<<16, mem)
	}
}

// plainStats is cache.Stats without its String method, so "%+v"
// prints every field.
type plainStats cache.Stats

// pinnedRun returns the "%+v" of sim's statistics, followed by its
// VictimStats for a victim cache.
func pinnedRun(sim cache.Sim) string {
	s := fmt.Sprintf("%+v", plainStats(sim.Stats()))
	if v, ok := sim.(*cache.VictimCache); ok {
		s += fmt.Sprintf(" %+v", v.VictimStats())
	}
	return s
}

// pinnedJob is one job of a kernels workload round: a pattern replayed
// for 4 passes, or a numerical kernel, on the cache of one kind.
type pinnedJob struct {
	name, kind string
	run        func(sim cache.Sim) error
}

// pinnedJobs lists the round's jobs: every pattern on every
// organisation, then the kernels on the prime- and direct-mapped caches.
func pinnedJobs() []pinnedJob {
	var jobs []pinnedJob
	for _, p := range pinnedPatterns {
		for _, kind := range cache.SpecKinds() {
			jobs = append(jobs, pinnedJob{"replay/" + p.Name + "/" + kind, kind, func(sim cache.Sim) error {
				_, err := trace.ReplayPattern(sim, p, 4)
				return err
			}})
		}
	}
	for _, k := range []string{"matmul", "lu", "fft2d"} {
		for _, kind := range []string{"prime", "direct"} {
			jobs = append(jobs, pinnedJob{"kernel/" + k + "/" + kind, kind, func(sim cache.Sim) error {
				return pinnedKernel(k, sim)
			}})
		}
	}
	return jobs
}

// buildPinned returns a new simulator of the pinned spec of kind.
func buildPinned(tb testing.TB, kind string) cache.Sim {
	tb.Helper()
	spec, ok := pinnedSpecs[kind]
	if !ok {
		tb.Fatalf("no pinned spec for cache kind %s", kind)
	}
	sim, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return sim
}

// pinnedRuns runs every pinned job on a fresh simulator.
func pinnedRuns(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, j := range pinnedJobs() {
		sim := buildPinned(t, j.kind)
		if err := j.run(sim); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		got[j.name] = pinnedRun(sim)
	}
	return got
}

// BenchmarkPinnedJobs times each pinned job as a kernels workload round
// runs it, on a flushed simulator, and reports its cost per reference.
// The references count those of passes a replay folds (see
// trace.ReplayPattern): accounted for, but never simulated.
func BenchmarkPinnedJobs(b *testing.B) {
	for _, j := range pinnedJobs() {
		b.Run(j.name, func(b *testing.B) {
			sim := buildPinned(b, j.kind)
			if err := j.run(sim); err != nil {
				b.Fatal(err)
			}
			refs := sim.Stats().Accesses
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Flush()
				if err := j.run(sim); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*refs), "ns/ref")
		})
	}
}

// TestPinnedStats fails when any pinned statistic moves without a
// ResultEpoch bump. Its message prints the table for the current
// epoch, to be pasted in once the bump is deliberate.
func TestPinnedStats(t *testing.T) {
	got := pinnedRuns(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var table strings.Builder
	for _, name := range names {
		fmt.Fprintf(&table, "\t\t%q: %q,\n", name, got[name])
	}
	want, ok := pinnedStats[ResultEpoch]
	if !ok {
		t.Fatalf("no pinned statistics for ResultEpoch %d; the current ones are:\n%s", ResultEpoch, table.String())
	}
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s under ResultEpoch %d:\n got  %s\n want %s", name, ResultEpoch, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("pinned job %s no longer runs", name)
		}
	}
	if t.Failed() {
		t.Logf("the current statistics are:\n%s", table.String())
	}
}

// pinnedFolds pins, for each pinned replay job, the runs of its pattern
// after which the simulator's RepeatPass accepted the passes left (see
// trace.ReplayPattern): [1] after a first pass that evicts nothing, [2]
// once an LRU cache is in steady state, [] when every pass is replayed.
// It is not an answer the service gives, so no ResultEpoch keys it; a
// simulator change that folds more or fewer passes shows here.
var pinnedFolds = map[string]string{
	"replay/diagonal/assoc":       "[1]",
	"replay/diagonal/direct":      "[1]",
	"replay/diagonal/full":        "[2]",
	"replay/diagonal/prime":       "[1]",
	"replay/diagonal/prime-assoc": "[1]",
	"replay/diagonal/skewed":      "[]",
	"replay/diagonal/victim":      "[1]",
	"replay/fft/assoc":            "[1]",
	"replay/fft/direct":           "[1]",
	"replay/fft/full":             "[2]",
	"replay/fft/prime":            "[1]",
	"replay/fft/prime-assoc":      "[1]",
	"replay/fft/skewed":           "[1]",
	"replay/fft/victim":           "[1]",
	"replay/rowcol/assoc":         "[]",
	"replay/rowcol/direct":        "[2]",
	"replay/rowcol/full":          "[2]",
	"replay/rowcol/prime":         "[2]",
	"replay/rowcol/prime-assoc":   "[1]",
	"replay/rowcol/skewed":        "[]",
	"replay/rowcol/victim":        "[2]",
	"replay/strided/assoc":        "[2]",
	"replay/strided/direct":       "[2]",
	"replay/strided/full":         "[2]",
	"replay/strided/prime":        "[1]",
	"replay/strided/prime-assoc":  "[1]",
	"replay/strided/skewed":       "[1]",
	"replay/strided/victim":       "[2]",
	"replay/subblock/assoc":       "[1]",
	"replay/subblock/direct":      "[1]",
	"replay/subblock/full":        "[2]",
	"replay/subblock/prime":       "[1]",
	"replay/subblock/prime-assoc": "[1]",
	"replay/subblock/skewed":      "[1]",
	"replay/subblock/victim":      "[1]",
}

// foldRuns passes everything to the simulator it wraps and records the
// runs at which that simulator's RepeatPass accepted.
type foldRuns struct {
	cache.BatchSim
	runs []uint64
}

func (s *foldRuns) RepeatPass(pass cache.Stats, times, runs uint64) bool {
	ok := s.BatchSim.RepeatPass(pass, times, runs)
	if ok {
		s.runs = append(s.runs, runs)
	}
	return ok
}

// TestPinnedFolds fails when the passes a pinned replay job folds
// change. Its message prints the current table.
func TestPinnedFolds(t *testing.T) {
	got := map[string]string{}
	var names []string
	for _, j := range pinnedJobs() {
		if !strings.HasPrefix(j.name, "replay/") {
			continue
		}
		spy := &foldRuns{BatchSim: buildPinned(t, j.kind).(cache.BatchSim)}
		if err := j.run(spy); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		got[j.name] = fmt.Sprint(spy.runs)
		names = append(names, j.name)
	}
	sort.Strings(names)
	var table strings.Builder
	for _, name := range names {
		fmt.Fprintf(&table, "\t%q: %q,\n", name, got[name])
		if want, ok := pinnedFolds[name]; !ok || want != got[name] {
			t.Errorf("%s folds at runs %s, want %s", name, got[name], want)
		}
	}
	for name := range pinnedFolds {
		if _, ok := got[name]; !ok {
			t.Errorf("pinned replay job %s no longer runs", name)
		}
	}
	if t.Failed() {
		t.Logf("the current folds are:\n%s", table.String())
	}
}
