// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads against the program through its public packages
// and HTTP surfaces, checks every output, and prints one JSON result
// as the last line of standard output:
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it runs the workload once untraced and
// once with tracers on the node and coordinator options and on the
// benchmark's own calls, and reports the per-layer metrics. All times
// are host time; the end-to-end ones are scaled to a reference host's
// speed (see calibrate.go) and printed unscaled as well. Simulated
// statistics are not performance numbers:
// they are checked for exact equality against the reference simulator
// (internal/oracle), and their digest is printed so a change meant
// only for speed can show it unchanged.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"primecache/internal/cache"
	"primecache/internal/obs"
)

// clients is the closed loop's concurrency for the service workloads:
// callers of vcached are sweep scripts that wait for each reply, and
// the reference host has two CPUs.
const clients = 2

// windows splits a measured phase; throughput, CPU per operation, the
// latency percentiles and the heap goal are reported as the median
// over the windows.
const windows = 10

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

type config struct {
	seed    int64
	seconds int
	tmp     string // temporary directory under .bench_build
	// want is the reference simulator's statistics for every simulate
	// class of the service menu, computed before set-up and timing.
	want map[int]cache.Stats
}

// instance is one set-up workload.
type instance interface {
	// do performs operation seq; several goroutines call it with
	// distinct seqs. An error, a refusal or a wrong answer it can see
	// at once fails the operation.
	do(ctx context.Context, seq int) error
	// simRefs is how many references operation seq simulated.
	simRefs(seq int) uint64
	// verify reports what the checks found, and checks what could
	// not be checked while the operations ran, once timing has stopped.
	verify(d tierDelta) verdict
	// counters reads the per-layer counters on /v1/stats.
	counters() (tierCounts, error)
	// shares counts the simulate answers served and how many were
	// answered in closed form.
	shares() shares
	// tracers returns the traced variant's tracers: the program's
	// (node, coordinator, backends) and the benchmark's own.
	tracers() []*obs.Tracer
	close() error
}

type workload struct {
	name    string
	why     string
	clients int
	menu    bool // runs the service menu, so needs cfg.want
	setup   func(cfg config, traced bool) (instance, error)
}

var workloadList = []workload{
	{"kernels", "pattern menu through all seven cache organisations plus blocked matmul, LU and FFT; all time in cache, trace and workloads", 1, false, setupKernels},
	{"service-cold", "distinct jobs of the documented request shapes plus assumed replay and closed-form slots: pool, evaluation, memo insert, persist append", clients, true, setupCold},
	{"service-hot", "warm restart; the menu's jobs repeated, answered by persist then memo, an assumed quarter by 304; zero simulation", clients, true, setupHot},
	{"cluster-sweep", "3-backend cluster, 33-job sweeps of memoized menu jobs, sized so every sweep reaches all backends: routing, fan-out, merge", clients, true, setupSweep},
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct{ name, unit, better string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: kernels, service-cold, service-hot or cluster-sweep")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	var wl *workload
	for i := range workloadList {
		if workloadList[i].name == name {
			wl = &workloadList[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	tmp := filepath.Join(wd, ".bench_build", "tmp", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := config{seed: seed, seconds: seconds, tmp: tmp}
	if wl.menu {
		if cfg.want, err = menuOracle(seed); err != nil {
			return err
		}
	}

	sha := os.Getenv("PERFBENCH_GIT_SHA")
	if sha == "" {
		sha = "unknown"
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%v\n", wl.name, seed, seconds, traced)
	fmt.Printf("# why: %s\n", wl.why)
	fmt.Printf("# gomaxprocs=%d nproc=%d go=%s git=%s clients=%d closed-loop\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), sha, wl.clients)

	var res result
	if traced {
		res, err = runTraced(wl, cfg)
	} else {
		res, err = runPlain(wl, cfg)
	}
	if err != nil {
		return err
	}
	for _, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return errors.New("a metric is not a finite number")
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// phaseOutcome is a measured phase with its checks done.
type phaseOutcome struct {
	ph       phaseResult
	delta    tierDelta
	v        verdict
	sh       shares
	from, to []uint64 // tracer finished-trace counts around the phase
}

// measure runs one timed phase on inst; check verifies it afterwards.
func measure(wl *workload, inst instance, dur time.Duration, nWindows int, h *heapSampler, cal *calibrator) (phaseOutcome, error) {
	before, err := inst.counters()
	if err != nil {
		return phaseOutcome{}, fmt.Errorf("reading counters: %w", err)
	}
	from := finishedCounts(inst.tracers())
	ph := runPhase(inst, wl.clients, dur, nWindows, h, cal)
	to := finishedCounts(inst.tracers())
	after, err := inst.counters()
	if err != nil {
		return phaseOutcome{}, fmt.Errorf("reading counters: %w", err)
	}
	return phaseOutcome{ph: ph, delta: tierDelta{tierCounts: after.sub(before), ops: ph.seqs}, from: from, to: to}, nil
}

func (o *phaseOutcome) check(inst instance) {
	o.v, o.sh = inst.verify(o.delta), inst.shares()
}

func (o phaseOutcome) failed() int {
	_, failed, _, _ := o.ph.totals()
	return failed + o.v.bad
}

func (o phaseOutcome) report(label string) {
	ops, failed, refs, elapsed := o.ph.totals()
	lats := o.ph.allLatencies()
	fmt.Printf("# %s: ops=%d failed=%d mismatched=%d elapsed_s=%.3f\n", label, ops, failed, o.v.bad, elapsed.Seconds())
	fmt.Printf("# %s: whole phase p50_ms=%.4f p90_ms=%.4f p99_ms=%.4f over %d samples (%d beyond p99)\n", label,
		ms(quantile(lats, 0.5)), ms(quantile(lats, 0.9)), ms(quantile(lats, 0.99)), len(lats), len(lats)/100)
	fmt.Printf("# %s: sim_mrefs_per_s=%.4f (%d references simulated; closed-form and memoized answers excluded)\n",
		label, float64(refs)/elapsed.Seconds()/1e6, refs)
	fmt.Printf("# %s: analytic answers %d of %d simulate answers\n", label, o.sh.analytic, o.sh.simulate)
	var ws []string
	for _, w := range o.ph.windows {
		ws = append(ws, fmt.Sprintf("%.4g", throughput(w)))
	}
	fmt.Printf("# %s: throughput per window %s\n", label, strings.Join(ws, " "))
	fmt.Printf("# %s: stats digest %s\n", label, o.v.digest)
	for _, p := range o.v.problems {
		fmt.Printf("# %s: MISMATCH %s\n", label, p)
	}
}

// runPlain measures the end-to-end metrics with tracing off.
func runPlain(wl *workload, cfg config) (result, error) {
	// Each set-up is scaled by the host's slowness around it: the mean
	// of the calibrations just before and just after it.
	var (
		inst              instance
		setups, rawSetups []float64
	)
	cal := newCalibrator(wl.clients)
	before := cal.slowness()
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(cfg, false); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		after := cal.slowness()
		rawSetups, setups = append(rawSetups, d), append(setups, d/((before+after)/2))
		before = after
	}
	heap := startHeapSampler()
	o, err := measure(wl, inst, time.Duration(cfg.seconds)*time.Second, windows, heap, cal)
	heap.finish()
	checkStart := time.Now()
	if err == nil {
		o.check(inst)
	}
	checkTime := time.Since(checkStart)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	o.report("untraced")
	fmt.Printf("# setup_s runs, unscaled: %.4g; checks took %.2fs\n", rawSetups, checkTime.Seconds())

	ph := o.ph
	slow := ph.perWindow(func(w window) float64 { return w.slow })
	pct := func(q float64) func(w window) float64 {
		return func(w window) float64 { return ms(quantile(w.lats, q)) }
	}
	raw := map[string]float64{
		"throughput_rps": ph.perWindow(throughput),
		"p50_ms":         ph.perWindow(pct(0.5)),
		"p90_ms":         ph.perWindow(pct(0.9)),
		"cpu_ms_per_op":  ph.perWindow(func(w window) float64 { return ms(w.cpu) / float64(w.ops) }),
		"setup_s":        median(rawSetups),
	}
	values := map[string]float64{
		"throughput_rps": ph.perWindow(func(w window) float64 { return throughput(w) * w.slow }),
		"p50_ms":         ph.perWindow(func(w window) float64 { return pct(0.5)(w) / w.slow }),
		"p90_ms":         ph.perWindow(func(w window) float64 { return pct(0.9)(w) / w.slow }),
		"cpu_ms_per_op":  ph.perWindow(func(w window) float64 { return ms(w.cpu) / float64(w.ops) / w.slow }),
		"heap_goal_mb":   ph.perWindow(func(w window) float64 { return w.heapMB }),
		"setup_s":        median(setups),
	}
	var rawText []string
	for _, e := range endToEnd {
		if v, ok := raw[e.name]; ok {
			rawText = append(rawText, fmt.Sprintf("%s=%.4g", e.name, v))
		}
	}
	fmt.Printf("# host slowness %.4f against the reference (median over windows); unscaled: %s\n", slow, strings.Join(rawText, " "))
	res := result{
		Correct:   o.failed() == 0 && !o.v.failed,
		Attempted: ph.seqs,
		Failed:    o.failed(),
		Metrics:   map[string]metric{},
	}
	for _, e := range endToEnd {
		res.Metrics[e.name] = metric{values[e.name], e.unit}
	}
	return res, nil
}

// endToEnd is the end-to-end metric list of BENCHMARK.json: what a
// caller sees, with every time scaled to the reference host's speed
// (see calibrate.go). Throughput, CPU per operation and the latency
// percentiles are medians over the phase's windows (a failed operation
// counts as infinitely slow; over the whole phase, one burst of outside
// load moved the p90 of a run by 40%), heap_goal_mb is the median over
// windows of the largest heap goal the collector set in each (see
// heapSampler), and setup_s is the median set-up, each scaled by the
// host's slowness around it.
var endToEnd = []metricSpec{
	{"throughput_rps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"heap_goal_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// runTraced measures the per-layer metrics: half the time untraced,
// half traced, so the tracing overhead is their throughput difference;
// then the simulator's layers on their own.
func runTraced(wl *workload, cfg config) (result, error) {
	half := time.Duration(cfg.seconds) * time.Second / 2
	var outs [2]phaseOutcome
	var spans []obs.SpanData
	var dropped int
	for i, traced := range []bool{false, true} {
		inst, err := wl.setup(cfg, traced)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		outs[i], err = measure(wl, inst, half, 1, nil, nil)
		if err == nil {
			outs[i].check(inst)
			if traced {
				spans, dropped = collectSpans(inst.tracers(), outs[i].from, outs[i].to)
			}
		}
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, err
		}
	}
	outs[0].report("untraced")
	outs[1].report("traced")
	tracedOps := outs[1].ph.seqs
	folded := fold(spans)
	printFold(os.Stdout, folded, tracedOps)

	m := spanLayers(folded, tracedOps, outs[1].delta.tierCounts, outs[1].sh, dropped)
	sim, err := simulatorLayers(cfg.seed)
	if err != nil {
		return result{}, err
	}
	for k, v := range sim {
		m[k] = v
	}
	memo, err := memoLayers(cfg.seed, int(outs[1].delta.memoCap))
	if err != nil {
		return result{}, err
	}
	for k, v := range memo {
		m[k] = v
	}
	ops, _, refs, elapsed := outs[0].ph.totals()
	m["cache.sim_mrefs_per_s"] = float64(refs) / elapsed.Seconds() / 1e6
	untraced := float64(ops) / elapsed.Seconds()
	tops, _, _, telapsed := outs[1].ph.totals()
	m["obs.overhead_pct"] = 100 * (untraced - float64(tops)/telapsed.Seconds()) / untraced

	res := result{
		Correct:   outs[0].failed()+outs[1].failed() == 0 && !outs[0].v.failed && !outs[1].v.failed,
		Attempted: outs[0].ph.seqs + outs[1].ph.seqs,
		Failed:    outs[0].failed() + outs[1].failed(),
		Metrics:   map[string]metric{},
	}
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", l.name)
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}
	var lines []string
	for n, v := range m {
		lines = append(lines, fmt.Sprintf("%s=%.4g", n, v))
	}
	sort.Strings(lines)
	fmt.Printf("# layers: %s\n", strings.Join(lines, " "))
	return res, nil
}
