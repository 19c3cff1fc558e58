package server

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"primecache/internal/cache"
	"primecache/internal/mersenne"
	"primecache/internal/obs"
	"primecache/internal/trace"
	"primecache/internal/vcm"
)

// evalChunk is how many references run between context checks, so a
// timed-out or cancelled job stops promptly without a per-access check.
const evalChunk = 1 << 16

// analyticMinRefs is the job size (passes × refs/pass) from which a job
// trace.ClosedForm covers is always answered in closed form instead of
// simulated. Below it a job still qualifies when it is more than twice
// the closed form's guard replay (see trySimulateAnalytic).
const analyticMinRefs = 1 << 22

// PartialError reports a simulation the context stopped mid-flight: the
// job burned Refs references and produced no result. It unwraps to the
// context's error so envelope mapping (timeout vs cancelled) still
// works; the server folds Refs into the /v1/stats partial-work
// counters.
type PartialError struct {
	Refs uint64
	Err  error
}

// Error reports how many references ran and why the job stopped.
func (e *PartialError) Error() string {
	return fmt.Sprintf("server: job stopped after %d references: %v", e.Refs, e.Err)
}

// Unwrap returns the context's error, so errors.Is sees through it.
func (e *PartialError) Unwrap() error { return e.Err }

// runSimulate executes one validated simulation job. Results are
// deterministic: the same request always produces byte-identical
// answers (the Random replacement policy is deterministically seeded,
// a closed-form answer passed trace.ClosedForm's replayed guard, and
// which path answers depends only on the job). shelf lends the job an
// idle simulator of its cache spec; nil gives the job a shelf of its
// own, so it builds a fresh one.
func runSimulate(ctx context.Context, req SimulateRequest, shelf *simShelf) (*SimulateResponse, error) {
	req = req.Normalize()

	// Jobs trace.ClosedForm covers are answered in O(passes) arithmetic
	// whenever that is cheaper than simulating them.
	if shelf == nil {
		shelf = new(simShelf)
	}
	_, aspan := obs.Start(ctx, "eval.analytic")
	resp := trySimulateAnalytic(req, shelf)
	aspan.SetAttr("hit", strconv.FormatBool(resp != nil))
	aspan.End()
	if resp != nil {
		return resp, nil
	}

	// Everything else streams the pattern through the batch API in
	// fixed-size chunks: the trace is never materialised, and the replay
	// checks the context every evalChunk references so a dead client
	// stops burning CPU.
	b, reused, err := shelf.checkout(req.Cache)
	if err != nil {
		return nil, err
	}
	_, rspan := obs.Start(ctx, "eval.replay")
	stats, refsDone, err := trace.ReplayPatternContext(ctx, b.sim, req.Pattern, req.Passes, evalChunk)
	rspan.SetAttr("refs", strconv.FormatUint(refsDone, 10))
	rspan.SetAttr("reused", strconv.FormatBool(reused))
	rspan.End()
	var victim *cache.VictimStats
	if v, ok := b.sim.(*cache.VictimCache); ok {
		vs := v.VictimStats()
		victim = &vs
	}
	shelf.checkin(b)
	if err != nil {
		return nil, &PartialError{Refs: refsDone, Err: err}
	}
	resp = simulateResponse(req, stats)
	resp.Victim = victim
	return resp, nil
}

// simulateResponse assembles the response to a normalised job from its
// stats. Strided and diagonal jobs also get the address unit's cost.
func simulateResponse(req SimulateRequest, stats cache.Stats) *SimulateResponse {
	p := req.Pattern
	resp := &SimulateResponse{
		Cache:       req.Cache.Describe(),
		Spec:        req.Cache.String(),
		Pattern:     p.String(),
		Passes:      req.Passes,
		RefsPerPass: p.RefCount(),
		Stats:       stats,
		HitRatio:    stats.HitRatio(),
		MissRatio:   stats.MissRatio(),
	}
	if start, stride, n, ok := p.Vector(); ok {
		resp.AdderSteps = analyticAdderSteps(req.Cache, start, stride, n, req.Passes)
	}
	return resp
}

// trySimulateAnalytic answers a normalised job through
// trace.ClosedForm, on a simulator lent by shelf for its guard replay.
// It returns nil when the job is outside the closed form, too small to
// bother, or fails the guard; the caller then simulates it, which is
// always correct. Below analyticMinRefs a job qualifies only when it is
// more than twice the guard's replay, so the closed form, whose cost is
// that replay, is meaningfully cheaper than simulating.
func trySimulateAnalytic(req SimulateRequest, shelf *simShelf) *SimulateResponse {
	_, guard, err := trace.ClosedForm(nil, req.Cache, req.Pattern, req.Passes)
	refs := int64(req.Pattern.RefCount()) * int64(req.Passes)
	if err != nil || refs < analyticMinRefs && refs <= 2*int64(guard) {
		return nil
	}
	b, _, err := shelf.checkout(req.Cache)
	if err != nil {
		return nil
	}
	stats, _, err := trace.ClosedForm(b.sim, req.Cache, req.Pattern, req.Passes)
	shelf.checkin(b)
	if err != nil {
		return nil
	}
	resp := simulateResponse(req, stats)
	resp.Analytic = true
	return resp
}

// analyticAdderSteps is the address-unit cost of a strided sweep on a
// prime-mapped cache, in closed form: the cost of driving the sweep
// through the Figure-1 unit (core.VectorCache.LoadVector) in
// evalChunk-sized vectors, each paying one stride conversion, one start
// conversion and one end-around addition per remaining element (see
// mersenne.AddressUnit). Non-prime organisations have no address unit.
func analyticAdderSteps(spec cache.Spec, start uint64, stride int64, n, passes int) uint64 {
	if spec.Kind != "prime" {
		return 0
	}
	mod, err := mersenne.NewPrime(spec.C)
	if err != nil {
		return 0
	}
	abs := stride
	if abs < 0 {
		abs = -abs
	}
	_, strideSteps := mod.ReduceSteps(uint64(abs))
	var perPass uint64
	cur := start
	for done := 0; done < n; done += evalChunk {
		k := min(n-done, evalChunk)
		_, startSteps := mod.ReduceSteps(cur)
		perPass += uint64(strideSteps) + uint64(startSteps) + uint64(k-1)
		cur += uint64(int64(k) * stride)
	}
	return perPass * uint64(passes)
}

// machineWork converts a normalised ModelRequest into validated vcm
// parameter structs.
func (r ModelRequest) machineWork() (vcm.Machine, vcm.VCM, error) {
	mach := vcm.DefaultMachine(r.Banks, r.Tm)
	if err := mach.Validate(); err != nil {
		return mach, vcm.VCM{}, err
	}
	work := vcm.VCM{B: r.B, R: r.R, Pds: *r.Pds, P1S1: *r.P1, P1S2: *r.P1S2}
	if err := work.Validate(); err != nil {
		return mach, work, err
	}
	return mach, work, nil
}

// runModel evaluates the MM model and the CC model for the direct and
// prime geometries at one operating point — the service-side equivalent
// of one cmd/vcmodel invocation.
func runModel(req ModelRequest) (*ModelResponse, error) {
	req = req.Normalize()
	if err := req.Validate(Limits{}); err != nil {
		return nil, err
	}
	mach, work, err := req.machineWork()
	if err != nil {
		return nil, err
	}
	dg, pg := vcm.DirectGeom(req.C), vcm.PrimeGeom(req.C)
	b2 := int(math.Round(float64(work.B) * work.Pds))

	resp := &ModelResponse{
		Banks: req.Banks, Tm: req.Tm, B: work.B, R: work.R,
		Pds: work.Pds, P1: work.P1S1, P1S2: work.P1S2, N: req.N, C: req.C,
		MM: ModelMachine{
			SelfInterference1: vcm.IsM(mach, work.P1S1),
			SelfInterference2: vcm.IsM(mach, work.P1S2),
			CrossInterference: vcm.IcM(mach),
			TElemt:            vcm.TElemtMM(mach, work),
			TBlock:            vcm.TBlockMM(mach, work),
			Total:             vcm.TotalMM(mach, work, req.N),
			CyclesPerResult:   vcm.CyclesPerResultMM(mach, work, req.N),
		},
	}
	for _, gc := range []struct {
		g   vcm.CacheGeom
		dst *ModelMachine
	}{{dg, &resp.Direct}, {pg, &resp.Prime}} {
		*gc.dst = ModelMachine{
			SelfInterference1: vcm.IsC(gc.g, mach, work.B, work.P1S1),
			SelfInterference2: vcm.IsC(gc.g, mach, b2, work.P1S2),
			CrossInterference: vcm.IcC(gc.g, mach, work.B, work.Pds),
			TElemt:            vcm.TElemtCC(gc.g, mach, work),
			TBlock:            vcm.TBlockMM(mach, work),
			Total:             vcm.TotalCC(gc.g, mach, work, req.N),
			CyclesPerResult:   vcm.CyclesPerResultCC(gc.g, mach, work, req.N),
			MissRatio:         vcm.MissRatioCC(gc.g, mach, work),
			HitRatio:          vcm.HitRatioCC(gc.g, mach, work),
		}
	}
	if resp.Prime.CyclesPerResult > 0 {
		resp.Speedup = resp.Direct.CyclesPerResult / resp.Prime.CyclesPerResult
	}
	return resp, nil
}
