package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"primecache/internal/cache"
	"primecache/internal/core"
	"primecache/internal/obs"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// tierCounts are the per-layer counters the program exposes on
// /v1/stats (memo, persist, pool, conditional answers, admission) and,
// for the cluster, the coordinator's routing counters.
type tierCounts struct {
	memoCap                    uint64 // a node's memo capacity, not a counter
	memoHits, memoMisses       uint64
	persistHits, persistMisses uint64
	poolRuns, notModified      uint64
	shed, requests             uint64
	hedges, reroutes           uint64
}

func (a tierCounts) add(b tierCounts) tierCounts {
	return tierCounts{
		memoCap:  max(a.memoCap, b.memoCap),
		memoHits: a.memoHits + b.memoHits, memoMisses: a.memoMisses + b.memoMisses,
		persistHits: a.persistHits + b.persistHits, persistMisses: a.persistMisses + b.persistMisses,
		poolRuns: a.poolRuns + b.poolRuns, notModified: a.notModified + b.notModified,
		shed: a.shed + b.shed, requests: a.requests + b.requests,
		hedges: a.hedges + b.hedges, reroutes: a.reroutes + b.reroutes,
	}
}

func (a tierCounts) sub(b tierCounts) tierCounts {
	return tierCounts{
		memoCap:  a.memoCap,
		memoHits: a.memoHits - b.memoHits, memoMisses: a.memoMisses - b.memoMisses,
		persistHits: a.persistHits - b.persistHits, persistMisses: a.persistMisses - b.persistMisses,
		poolRuns: a.poolRuns - b.poolRuns, notModified: a.notModified - b.notModified,
		shed: a.shed - b.shed, requests: a.requests - b.requests,
		hedges: a.hedges - b.hedges, reroutes: a.reroutes - b.reroutes,
	}
}

// tierDelta is what a measured phase did to the counters, with the
// number of operations it issued.
type tierDelta struct {
	tierCounts
	ops int
}

// traceRing sizes every tracer's ring so a traced phase keeps all of
// its traces; evictions are counted as obs.dropped_traces.
const traceRing = 1 << 16

func newTracer(origin string) *obs.Tracer {
	return obs.NewTracer(obs.TracerOptions{Origin: origin, Capacity: traceRing})
}

// nonNil drops the nil tracers of an untraced variant.
func nonNil(trs ...*obs.Tracer) []*obs.Tracer {
	var out []*obs.Tracer
	for _, tr := range trs {
		if tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// finishedCounts reads how many traces each tracer has finished.
func finishedCounts(trs []*obs.Tracer) []uint64 {
	n := make([]uint64, len(trs))
	for i, tr := range trs {
		n[i] = tr.Finished()
	}
	return n
}

// collectSpans returns the spans of the traces each tracer finished
// between the from and to counts (the timed phase, without set-up or
// the counter reads around it), and how many of those traces, or spans
// within them, the tracers' bounds dropped.
func collectSpans(trs []*obs.Tracer, from, to []uint64) (spans []obs.SpanData, dropped int) {
	for i, tr := range trs {
		tds := tr.Traces() // the ring, oldest first: trace k is tds[k-evicted]
		evicted := tr.Finished() - uint64(len(tds))
		for k := from[i]; k < to[i]; k++ {
			if k < evicted {
				dropped++
				continue
			}
			td := tds[k-evicted]
			spans = append(spans, td.Spans...)
			dropped += td.Dropped
		}
	}
	return spans, dropped
}

// spanStat is one span name's total count and self time.
type spanStat struct {
	count  int
	selfUs float64
}

// fold groups spans by name and sums their self time: a span's
// duration minus the part of it its children cover. Spans of every
// tracer are folded together, so a client span's child is the node's
// edge span and a coordinator leg's child is the backend's edge span.
func fold(spans []obs.SpanData) map[string]*spanStat {
	kids := map[obs.SpanID][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]*spanStat{}
	for _, s := range spans {
		start := s.Start
		end := start.Add(time.Duration(s.DurationUs) * time.Microsecond)
		type iv struct{ a, b time.Time }
		var cover []iv
		for _, k := range kids[s.Span] {
			c := spans[k]
			a := c.Start
			b := a.Add(time.Duration(c.DurationUs) * time.Microsecond)
			if a.Before(start) {
				a = start
			}
			if b.After(end) {
				b = end
			}
			if b.After(a) {
				cover = append(cover, iv{a, b})
			}
		}
		sort.Slice(cover, func(i, j int) bool { return cover[i].a.Before(cover[j].a) })
		var covered time.Duration
		var reach time.Time
		for _, c := range cover {
			if c.a.Before(reach) {
				c.a = reach
			}
			if c.b.After(c.a) {
				covered += c.b.Sub(c.a)
				reach = c.b
			}
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.count++
		st.selfUs += float64(end.Sub(start)-covered) / float64(time.Microsecond)
	}
	return out
}

// printFold writes the self-time table, heaviest first.
func printFold(w io.Writer, folded map[string]*spanStat, ops int) {
	names := make([]string, 0, len(folded))
	for n := range folded {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return folded[names[i]].selfUs > folded[names[j]].selfUs })
	fmt.Fprintf(w, "# self time per operation over %d operations (span durations are whole microseconds)\n", ops)
	for _, n := range names {
		st := folded[n]
		fmt.Fprintf(w, "#   %-24s spans=%-8d self_us_per_op=%.3f\n", n, st.count, st.selfUs/float64(ops))
	}
}

// perOp sums the self time of the named spans per operation.
func perOp(folded map[string]*spanStat, ops int, names ...string) float64 {
	var us float64
	for _, n := range names {
		if st := folded[n]; st != nil {
			us += st.selfUs
		}
	}
	if ops == 0 {
		return 0
	}
	return us / float64(ops)
}

func countOf(folded map[string]*spanStat, names ...string) int {
	n := 0
	for _, name := range names {
		if st := folded[name]; st != nil {
			n += st.count
		}
	}
	return n
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// spanLayers maps folded spans and counter deltas onto the per-layer
// metrics of the program's layers.
func spanLayers(folded map[string]*spanStat, ops int, d tierCounts, sh shares, dropped int) map[string]float64 {
	m := map[string]float64{
		"server.edge_self_us":      perOp(folded, ops, "simulate", "model", "sweep"),
		"server.admit_us":          perOp(folded, ops, "admit"),
		"server.singleflight_us":   perOp(folded, ops, "singleflight.join"),
		"server.persist_lookup_us": perOp(folded, ops, "persist-lookup"),
		"server.persist_store_us":  perOp(folded, ops, "persist-store"),
		"server.pool_wait_us":      perOp(folded, ops, "pool.wait"),
		"server.pool_run_self_us":  perOp(folded, ops, "pool.run"),
		"server.eval_replay_us":    perOp(folded, ops, "eval.replay"),
		"server.eval_vector_us":    perOp(folded, ops, "eval.vector"),
		"server.eval_analytic_us":  perOp(folded, ops, "eval.analytic"),
		"client.overhead_us":       perOp(folded, ops, "client.simulate", "client.model", "client.sweep", "client.conditional"),
		"cluster.edge_self_us":     perOp(folded, ops, "coord.simulate", "coord.model", "coord.sweep"),
		"cluster.leg_us":           perOp(folded, ops, "sweep.leg"),
		"cluster.call_us":          perOp(folded, ops, "call"),

		"server.memo_hit_ratio":     ratio(d.memoHits, d.memoHits+d.memoMisses),
		"server.memo_lookups":       float64(d.memoHits + d.memoMisses),
		"server.persist_hit_ratio":  ratio(d.persistHits, d.persistHits+d.persistMisses),
		"server.persist_lookups":    float64(d.persistHits + d.persistMisses),
		"server.analytic_share":     ratio(sh.analytic, sh.simulate),
		"server.simulate_answers":   float64(sh.simulate),
		"server.not_modified_ratio": ratio(d.notModified, d.requests),
		"server.shed_ratio":         ratio(d.shed, d.requests),
		"server.requests":           float64(d.requests),
		"server.pool_runs":          float64(d.poolRuns),
		"cluster.reroutes":          float64(d.reroutes),
		"cluster.hedges":            float64(d.hedges),
		"obs.dropped_traces":        float64(dropped),
	}
	if sweeps := countOf(folded, "coord.sweep"); sweeps > 0 {
		m["cluster.legs_per_sweep"] = float64(countOf(folded, "sweep.leg")) / float64(sweeps)
	} else {
		m["cluster.legs_per_sweep"] = 0
	}
	return m
}

// shares counts the simulate answers a phase served and how many of
// them came from the closed form.
type shares struct{ simulate, analytic uint64 }

func (sh *shares) count(res server.SweepResult) {
	if res.Simulate != nil {
		sh.simulate++
		if res.Simulate.Analytic {
			sh.analytic++
		}
	}
}

// microReps is how many times each simulator-layer measurement repeats;
// the median repetition is reported.
const microReps = 9

// timedPerRef runs prep then f microReps times, timing only f, and
// returns the median nanoseconds per reference.
func timedPerRef(refs int, prep, f func()) float64 {
	xs := make([]float64, microReps)
	for i := range xs {
		prep()
		xs[i] = float64(timeIt(f).Nanoseconds()) / float64(refs)
	}
	return median(xs)
}

// simulatorLayers times the simulator's layers directly, on the
// kernels replay jobs (the pattern menu shifted for the seed, four
// passes each) with their references built beforehand: the batch and
// per-access entry points of every organisation on a flushed cache,
// the trace cursor and replay loop, the vector front end, and the
// numerical kernels with and without a cache behind them.
func simulatorLayers(seed int64) (map[string]float64, error) {
	base := seedBase(seed) * period
	pats := make([]trace.Pattern, len(kernelPatterns))
	jobRefs := make([][]cache.Access, len(kernelPatterns))
	var total int
	for i, p := range kernelPatterns {
		p.Start = base
		pats[i] = p.Normalize()
		cur, err := trace.NewCursor(p)
		if err != nil {
			return nil, err
		}
		pass := make([]cache.Access, p.RefCount())
		pass = pass[:cur.Next(pass)]
		for k := 0; k < kernelPasses; k++ {
			jobRefs[i] = append(jobRefs[i], pass...)
		}
		total += len(jobRefs[i])
	}
	// perJob times f on every job, each on a freshly flushed sim, and
	// returns the median over repetitions of nanoseconds per reference.
	perJob := func(sim cache.Sim, f func(i int)) float64 {
		xs := make([]float64, microReps)
		for r := range xs {
			var d time.Duration
			for i := range jobRefs {
				sim.Flush()
				d += timeIt(func() { f(i) })
			}
			xs[r] = float64(d.Nanoseconds()) / float64(total)
		}
		return median(xs)
	}
	m := map[string]float64{}
	for _, o := range kernelOrgs {
		sim, err := o.spec.Build()
		if err != nil {
			return nil, err
		}
		m["cache.batch_ns_per_ref."+o.label] = perJob(sim, func(i int) {
			cache.AccessBatch(sim, jobRefs[i], nil)
		})
		m["cache.access_ns_per_ref."+o.label] = perJob(sim, func(i int) {
			for _, a := range jobRefs[i] {
				sim.Access(a)
			}
		})
	}
	var buf [256]cache.Access
	m["trace.cursor_ns_per_ref"] = timedPerRef(total, func() {}, func() {
		for _, p := range pats {
			cur, _ := trace.NewCursor(p)
			for k := 0; k < kernelPasses; k++ {
				cur.Reset()
				for cur.Next(buf[:]) > 0 {
				}
			}
		}
	})
	// ReplayPattern issues exactly the job's reference slice, so the
	// difference is the replay loop's own cost.
	prime, err := prime13.Build()
	if err != nil {
		return nil, err
	}
	m["trace.replay_overhead_ns_per_ref"] = perJob(prime, func(i int) {
		trace.ReplayPattern(prime, pats[i], kernelPasses)
	}) - m["cache.batch_ns_per_ref.prime"]

	vc, err := core.FromSpec(prime13)
	if err != nil {
		return nil, err
	}
	var vecRefs int
	for _, p := range pats {
		if p.Name == "strided" || p.Name == "diagonal" {
			vecRefs += p.N
		}
	}
	m["core.vector_ns_per_ref"] = timedPerRef(vecRefs, vc.Flush, func() {
		for _, p := range pats {
			switch p.Name {
			case "strided":
				vc.LoadVector(p.Start, p.Stride, p.N, p.Stream)
			case "diagonal":
				vc.LoadVector(p.Start, int64(p.LD)+1, p.N, p.Stream)
			}
		}
	})

	in := newKernelInputs(seedBase(seed))
	for _, k := range []string{"matmul", "lu", "fft2d"} {
		var out kernelOutput
		m["workloads."+k+".compute_ms"] = timedPerRef(1, func() {}, func() {
			runKernel(k, in, nil, &out)
		}) / 1e6
		m["workloads."+k+".traced_ms"] = timedPerRef(1, prime.Flush, func() {
			runKernel(k, in, prime, &out)
		}) / 1e6
	}
	return m, nil
}

// memoLayers times the memo LRU and the job key directly: their spans
// last well under the microsecond to which span durations are
// truncated. A memo of the node's capacity is filled with the keys of
// service-cold's first operations; then every key is computed, every
// one looked up (all hits), and as many new keys stored (each evicts).
// A capacity of 0 (no node, as in kernels) reports zeros.
func memoLayers(seed int64, capacity int) (map[string]float64, error) {
	m := map[string]float64{"server.job_key_ns": 0, "server.memo_get_ns": 0, "server.memo_put_ns": 0}
	if capacity <= 0 {
		return m, nil
	}
	jobs := make([]server.SweepJob, 2*capacity)
	keys := make([]string, len(jobs))
	for i := range jobs {
		_, jobs[i] = coldJob(seed, i)
		keys[i] = jobs[i].Key()
	}
	old, fresh := keys[:capacity], keys[capacity:]
	var memo *server.Memo
	value := &server.SimulateResponse{}
	fill := func() {
		memo = server.NewMemo(capacity)
		for _, k := range old {
			memo.Put(k, value)
		}
	}
	m["server.job_key_ns"] = timedPerRef(len(jobs), func() {}, func() {
		for _, j := range jobs {
			_ = j.Key()
		}
	})
	hits := 0
	m["server.memo_get_ns"] = timedPerRef(capacity, fill, func() {
		for _, k := range old {
			if _, ok := memo.Get(k); ok {
				hits++
			}
		}
	})
	if hits != microReps*capacity {
		return nil, fmt.Errorf("memo of capacity %d answered %d of %d lookups of its own keys", capacity, hits, microReps*capacity)
	}
	m["server.memo_put_ns"] = timedPerRef(capacity, fill, func() {
		for _, k := range fresh {
			memo.Put(k, value)
		}
	})
	return m, nil
}

func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// perLayer is the per-layer metric list of BENCHMARK.json, in its
// order; a traced run reports every one of them (zero where the
// workload does not reach the layer). What each should move:
//
//   - cache.*, trace.*, core.*: sim_mrefs_per_s and throughput_rps on
//     kernels, cpu_ms_per_op on service-cold; never service-hot or
//     cluster-sweep, which simulate nothing.
//   - workloads.*.compute_ms against traced_ms separates a kernel's
//     arithmetic from its simulation on kernels.
//   - server.pool_wait_us and persist_store_us: p90_ms on service-cold;
//     server.eval_*: cpu_ms_per_op on service-cold; server.edge_self_us,
//     persist_lookup_us, job_key_ns and memo_get_ns: p50_ms and
//     throughput_rps on service-hot; server.memo_put_ns: cpu_ms_per_op
//     on service-cold; client.overhead_us: p50_ms on service-hot.
//   - The *_us figures are folded from spans, whose durations are
//     truncated to whole microseconds: admit_us and singleflight_us
//     read near 0, and the truncated remainder of every child counts
//     as its parent's self time. The memo and job key are therefore
//     timed directly, in ns.
//   - cluster.*: p50_ms and throughput_rps on cluster-sweep.
//   - The ratios come with their bases (memo_lookups, persist_lookups,
//     simulate_answers, requests) and move no end-to-end metric by
//     themselves; obs.overhead_pct is the traced phase's throughput
//     loss against the untraced one. It is not the cost of tracing
//     alone: the traced phase keeps its traces in the rings, a larger
//     live heap makes the collector run less often, and the second
//     phase of a process runs on a heap the first one grew. On the
//     service workloads it reads from about -20% to 0, whichever
//     phase runs first.
var perLayer = func() []metricSpec {
	var l []metricSpec
	add := func(name, unit, better string) { l = append(l, metricSpec{name, unit, better}) }
	for _, mode := range []string{"batch", "access"} {
		for _, o := range kernelOrgs {
			add("cache."+mode+"_ns_per_ref."+o.label, "ns", "lower")
		}
	}
	add("cache.sim_mrefs_per_s", "Mrefs/s", "higher")
	add("trace.replay_overhead_ns_per_ref", "ns", "lower")
	add("trace.cursor_ns_per_ref", "ns", "lower")
	add("core.vector_ns_per_ref", "ns", "lower")
	for _, k := range []string{"matmul", "lu", "fft2d"} {
		add("workloads."+k+".compute_ms", "ms", "lower")
		add("workloads."+k+".traced_ms", "ms", "lower")
	}
	for _, s := range []string{"edge_self", "admit", "singleflight", "persist_lookup", "persist_store",
		"pool_wait", "pool_run_self", "eval_replay", "eval_vector", "eval_analytic"} {
		add("server."+s+"_us", "us", "lower")
	}
	for _, s := range []string{"job_key", "memo_get", "memo_put"} {
		add("server."+s+"_ns", "ns", "lower")
	}
	add("server.memo_hit_ratio", "ratio", "higher")
	add("server.memo_lookups", "count", "higher")
	add("server.persist_hit_ratio", "ratio", "higher")
	add("server.persist_lookups", "count", "higher")
	add("server.analytic_share", "ratio", "higher")
	add("server.simulate_answers", "count", "higher")
	add("server.not_modified_ratio", "ratio", "higher")
	add("server.shed_ratio", "ratio", "lower")
	add("server.requests", "count", "higher")
	add("server.pool_runs", "count", "higher")
	add("client.overhead_us", "us", "lower")
	add("cluster.edge_self_us", "us", "lower")
	add("cluster.leg_us", "us", "lower")
	add("cluster.call_us", "us", "lower")
	add("cluster.legs_per_sweep", "count", "lower")
	add("cluster.reroutes", "count", "lower")
	add("cluster.hedges", "count", "lower")
	add("obs.overhead_pct", "%", "lower")
	add("obs.dropped_traces", "count", "lower")
	return l
}()
