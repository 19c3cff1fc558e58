// Package server implements vcached, a long-running HTTP/JSON service
// that evaluates cache simulations and VCM analytical sweeps over the
// shared internal/* core. Endpoints:
//
//	POST /v1/simulate  — run a synthetic pattern through one cache organisation
//	POST /v1/model     — evaluate the MM/CC analytic models at one operating point
//	POST /v1/sweep     — a batch of simulate/model jobs fanned out over the compute slots
//	GET  /v1/healthz   — liveness
//	GET  /v1/stats     — metrics registry, memoizer and compute-slot counters
//
// Identical requests are computed once (an LRU memoizer keyed on the
// canonical form of the request), at most GOMAXPROCS jobs run at once,
// and shutdown drains in-flight requests.
package server

import (
	"strconv"

	"primecache/internal/cache"
	"primecache/internal/trace"
)

// Limits is the one set of admission bounds every request is validated
// against. The server owns a single Limits value (configurable via
// cmd/vcached flags) and passes it down every Validate path, so the
// bounds logic lives here and nowhere else.
type Limits struct {
	// MaxRefsPerJob bounds the accesses one simulate job may issue
	// (passes × refs/pass), so a single request cannot pin a compute slot
	// indefinitely. 0 selects the default (64Mi references).
	MaxRefsPerJob int
	// MaxSweepJobs bounds one sweep batch; 0 selects the default (4096).
	MaxSweepJobs int
	// MaxBodyBytes caps request bodies; 0 selects the default (8 MiB).
	MaxBodyBytes int64
}

// DefaultLimits returns the stock bounds.
func DefaultLimits() Limits {
	return Limits{MaxRefsPerJob: 64 << 20, MaxSweepJobs: 4096, MaxBodyBytes: 8 << 20}
}

// withDefaults fills zero fields from DefaultLimits.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxRefsPerJob == 0 {
		l.MaxRefsPerJob = d.MaxRefsPerJob
	}
	if l.MaxSweepJobs == 0 {
		l.MaxSweepJobs = d.MaxSweepJobs
	}
	if l.MaxBodyBytes == 0 {
		l.MaxBodyBytes = d.MaxBodyBytes
	}
	return l
}

// MaxCacheLines bounds the line frames (cache.Spec.Frames) of the cache
// one simulate job may ask for. A fixed constant rather than a Limits
// field: it keeps one job's cache to tens of megabytes, still admits the
// largest prime-mapped cache below it (c = 19, 2^19 − 1 lines), and
// rejects a spec such as prime c=31 before anything is allocated. At
// 2^20 frames the cache holds 24 MiB of frames (24 B each); sets of 16
// or more ways add their recency links, 8 B per frame, and 12 B per set
// of bookkeeping, under 9 MiB. That is 33 MiB at most. Wide sets keep
// no line table of their own: they find their frames through the
// classification history, which takes a node of 28 B (its line,
// shadow links, evictor, frame and flags) and 8 to 16 B of index per
// line a job references, so Limits.MaxRefsPerJob bounds it, not the
// cache.
const MaxCacheLines = 1 << 20

// SimulateRequest asks for one synthetic pattern to be run through one
// cache organisation.
type SimulateRequest struct {
	// Cache describes the organisation (see cache.Spec).
	Cache cache.Spec `json:"cache"`
	// Pattern describes the access pattern (see trace.Pattern).
	Pattern trace.Pattern `json:"pattern"`
	// Passes is the number of sweeps over the pattern (default 2).
	Passes int `json:"passes,omitempty"`
}

// Normalize fills defaults.
func (r SimulateRequest) Normalize() SimulateRequest {
	r.Cache = r.Cache.Normalize()
	r.Pattern = r.Pattern.Normalize()
	if r.Passes == 0 {
		r.Passes = 2
	}
	return r
}

// Validate checks the request against the server's limits, mapping bad
// configs to invalid_request errors and oversized jobs to job_too_large.
func (r SimulateRequest) Validate(lim Limits) error {
	lim = lim.withDefaults()
	r = r.Normalize()
	if err := r.Cache.Validate(); err != nil {
		return Errf(CodeInvalidRequest, "%v", err)
	}
	if n := r.Cache.Frames(); n > MaxCacheLines {
		return Errf(CodeJobTooLarge, "server: cache %s holds %d lines, limit %d", r.Cache, n, MaxCacheLines)
	}
	if err := r.Pattern.Validate(); err != nil {
		return Errf(CodeInvalidRequest, "%v", err)
	}
	if r.Passes < 1 {
		return Errf(CodeInvalidRequest, "server: passes must be ≥ 1, got %d", r.Passes)
	}
	// Bound the job arithmetically before materialising anything: a
	// request like strided n=2e9 must be rejected here, not after a
	// multi-gigabyte trace allocation. The passes check divides rather
	// than multiplies so huge values cannot overflow past the cap.
	if r.Passes > lim.MaxRefsPerJob {
		return Errf(CodeJobTooLarge, "server: passes %d exceeds limit %d", r.Passes, lim.MaxRefsPerJob)
	}
	refs := r.Pattern.RefCount()
	if refs > lim.MaxRefsPerJob {
		return Errf(CodeJobTooLarge, "server: pattern yields %d references per pass, limit %d", refs, lim.MaxRefsPerJob)
	}
	if refs > 0 && r.Passes > lim.MaxRefsPerJob/refs {
		return Errf(CodeJobTooLarge, "server: job would issue %d passes × %d references, limit %d", r.Passes, refs, lim.MaxRefsPerJob)
	}
	return nil
}

// ResultEpoch versions what an answer means: which path answers a job
// and what its fields hold. Every job key ends in it, so memo entries,
// persist records, ETags and ring routing of one epoch never meet
// another's, and a record stored under another epoch's key is a miss.
// Bump it with any change that alters the bytes some job is answered
// with, and add a row to API.md's "Result epoch" table.
const ResultEpoch = 2

// epochSuffix ends every job key.
var epochSuffix = "|epoch=" + strconv.Itoa(ResultEpoch)

// Key returns the canonical memoization key: equal requests (after
// normalisation) produce equal keys.
func (r SimulateRequest) Key() string {
	r = r.Normalize()
	var buf [160]byte
	b := r.Cache.AppendTo(append(buf[:0], "simulate|"...))
	b = r.Pattern.AppendTo(append(b, '|'))
	b = strconv.AppendInt(append(b, "|passes="...), int64(r.Passes), 10)
	return string(append(b, epochSuffix...))
}

// SimulateResponse reports the full stats of one simulation.
type SimulateResponse struct {
	Cache       string      `json:"cache"`
	Spec        string      `json:"spec"`
	Pattern     string      `json:"pattern"`
	Passes      int         `json:"passes"`
	RefsPerPass int         `json:"refsPerPass"`
	Stats       cache.Stats `json:"stats"`
	HitRatio    float64     `json:"hitRatio"`
	MissRatio   float64     `json:"missRatio"`
	// AdderSteps counts the Mersenne address unit's c-bit end-around
	// additions for a strided or diagonal job on a prime-mapped cache,
	// in closed form (see analyticAdderSteps); 0 otherwise.
	AdderSteps uint64 `json:"adderSteps,omitempty"`
	// Analytic reports the stats were computed by the closed-form
	// strided-sweep model (cross-checked against replay at admission)
	// instead of per-reference simulation.
	Analytic bool `json:"analytic,omitempty"`
	// Degraded is never set: which path answers a job no longer depends
	// on server load. The field stays because perfbench/check.go reads
	// it; it goes with the next change to the benchmark.
	Degraded bool `json:"degraded,omitempty"`
	// Victim reports the victim-buffer counters for kind "victim".
	Victim *cache.VictimStats `json:"victim,omitempty"`
}

// ModelRequest asks for one evaluation of the paper's analytic models.
type ModelRequest struct {
	// Banks is M, the number of interleaved banks (power of two,
	// default 64); Tm the memory access time in cycles (default 32).
	Banks int `json:"banks,omitempty"`
	Tm    int `json:"tm,omitempty"`
	// B is the blocking factor (default 4096); R the reuse factor
	// (default B).
	B int `json:"b,omitempty"`
	R int `json:"r,omitempty"`
	// Pds is the double-stream probability; P1 the unit-stride
	// probability applied to both streams unless P1S2 overrides the
	// second. An omitted (null) Pds or P1 defaults to 0.25, an omitted
	// P1S2 to P1. A value outside [0, 1] is rejected.
	Pds  *float64 `json:"pds,omitempty"`
	P1   *float64 `json:"p1,omitempty"`
	P1S2 *float64 `json:"p1s2,omitempty"`
	// N is the total problem size (default 2^20).
	N int `json:"n,omitempty"`
	// C is the cache-size exponent: direct-mapped 2^c lines, prime
	// 2^c − 1 (default 13).
	C uint `json:"c,omitempty"`
}

// Normalize fills defaults. A defaulted probability gets a pointer of
// its own.
func (r ModelRequest) Normalize() ModelRequest {
	r = r.withSizeDefaults()
	pds, p1, p1s2 := r.probabilities()
	if r.Pds == nil {
		r.Pds = f64(pds)
	}
	if r.P1 == nil {
		r.P1 = f64(p1)
	}
	if r.P1S2 == nil {
		r.P1S2 = f64(p1s2)
	}
	return r
}

// withSizeDefaults fills the defaults of every field but the
// probabilities.
func (r ModelRequest) withSizeDefaults() ModelRequest {
	if r.Banks == 0 {
		r.Banks = 64
	}
	if r.Tm == 0 {
		r.Tm = 32
	}
	if r.B == 0 {
		r.B = 4096
	}
	if r.R == 0 {
		r.R = r.B
	}
	if r.N == 0 {
		r.N = 1 << 20
	}
	if r.C == 0 {
		r.C = 13
	}
	return r
}

// probabilities returns Pds, P1 and P1S2 with their defaults applied,
// without allocating.
func (r ModelRequest) probabilities() (pds, p1, p1s2 float64) {
	pds, p1 = 0.25, 0.25
	if r.Pds != nil {
		pds = *r.Pds
	}
	if r.P1 != nil {
		p1 = *r.P1
	}
	p1s2 = p1
	if r.P1S2 != nil {
		p1s2 = *r.P1S2
	}
	return pds, p1, p1s2
}

func f64(v float64) *float64 { return &v }

// Validate checks the request. Model evaluations are O(1), so no limit
// applies, but the signature matches the one validation path every job
// type shares.
func (r ModelRequest) Validate(Limits) error {
	r = r.Normalize()
	if _, _, err := r.machineWork(); err != nil {
		return Errf(CodeInvalidRequest, "%v", err)
	}
	if r.N <= 0 {
		return Errf(CodeInvalidRequest, "server: n must be positive, got %d", r.N)
	}
	if r.C < 2 || r.C > 31 {
		return Errf(CodeInvalidRequest, "server: c must be in [2, 31], got %d", r.C)
	}
	return nil
}

// Key returns the canonical memoization key: the normalized request's
// fields, built on the stack, so the returned string is its one
// allocation.
func (r ModelRequest) Key() string {
	r = r.withSizeDefaults()
	pds, p1, p1s2 := r.probabilities()
	var buf [160]byte
	b := strconv.AppendInt(append(buf[:0], "model|banks="...), int64(r.Banks), 10)
	b = strconv.AppendInt(append(b, ",tm="...), int64(r.Tm), 10)
	b = strconv.AppendInt(append(b, ",b="...), int64(r.B), 10)
	b = strconv.AppendInt(append(b, ",r="...), int64(r.R), 10)
	b = strconv.AppendFloat(append(b, ",pds="...), pds, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ",p1="...), p1, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ",p1s2="...), p1s2, 'g', -1, 64)
	b = strconv.AppendInt(append(b, ",n="...), int64(r.N), 10)
	b = strconv.AppendUint(append(b, ",c="...), uint64(r.C), 10)
	return string(append(b, epochSuffix...))
}

// ModelMachine is one column of the vcmodel table: every intermediate
// quantity of the analytic model for one machine.
type ModelMachine struct {
	SelfInterference1 float64 `json:"selfInterference1"`
	SelfInterference2 float64 `json:"selfInterference2"`
	CrossInterference float64 `json:"crossInterference"`
	TElemt            float64 `json:"tElemt"`
	TBlock            float64 `json:"tBlock"`
	Total             float64 `json:"total"`
	CyclesPerResult   float64 `json:"cyclesPerResult"`
	// MissRatio and HitRatio are the model's cache-level predictions;
	// zero for the cacheless MM machine.
	MissRatio float64 `json:"missRatio,omitempty"`
	HitRatio  float64 `json:"hitRatio,omitempty"`
}

// ModelResponse reports the three machines side by side, like cmd/vcmodel.
type ModelResponse struct {
	Banks   int          `json:"banks"`
	Tm      int          `json:"tm"`
	B       int          `json:"b"`
	R       int          `json:"r"`
	Pds     float64      `json:"pds"`
	P1      float64      `json:"p1"`
	P1S2    float64      `json:"p1s2"`
	N       int          `json:"n"`
	C       uint         `json:"c"`
	MM      ModelMachine `json:"mm"`
	Direct  ModelMachine `json:"ccDirect"`
	Prime   ModelMachine `json:"ccPrime"`
	Speedup float64      `json:"primeOverDirect"`
}

// SweepJob is one element of a sweep batch: exactly one of Simulate or
// Model must be set.
type SweepJob struct {
	Simulate *SimulateRequest `json:"simulate,omitempty"`
	Model    *ModelRequest    `json:"model,omitempty"`
}

// Validate checks the job.
func (j SweepJob) Validate(lim Limits) error {
	switch {
	case j.Simulate != nil && j.Model != nil:
		return Errf(CodeInvalidRequest, "server: sweep job sets both simulate and model")
	case j.Simulate != nil:
		return j.Simulate.Validate(lim)
	case j.Model != nil:
		return j.Model.Validate(lim)
	default:
		return Errf(CodeInvalidRequest, "server: sweep job sets neither simulate nor model")
	}
}

// Key returns the canonical memoization key of the underlying job.
func (j SweepJob) Key() string {
	if j.Simulate != nil {
		return j.Simulate.Key()
	}
	if j.Model != nil {
		return j.Model.Key()
	}
	return "invalid"
}

// SweepRequest is a batch of jobs fanned out across the compute slots.
type SweepRequest struct {
	Jobs []SweepJob `json:"jobs"`
}

// Validate checks every job, reporting the first failure with its index.
func (r SweepRequest) Validate(lim Limits) error {
	lim = lim.withDefaults()
	if len(r.Jobs) == 0 {
		return Errf(CodeInvalidRequest, "server: sweep has no jobs")
	}
	if len(r.Jobs) > lim.MaxSweepJobs {
		return Errf(CodeJobTooLarge, "server: sweep has %d jobs, limit %d", len(r.Jobs), lim.MaxSweepJobs)
	}
	for i, j := range r.Jobs {
		if err := j.Validate(lim); err != nil {
			ae := asAPIError(err)
			return Errf(ae.Code, "job %d: %s", i, ae.Message)
		}
	}
	return nil
}

// SweepResult is one job's outcome, delivered in input order.
type SweepResult struct {
	Index    int               `json:"index"`
	Simulate *SimulateResponse `json:"simulate,omitempty"`
	Model    *ModelResponse    `json:"model,omitempty"`
	Error    string            `json:"error,omitempty"`
	// ErrorCode is the machine code classifying Error, when set.
	ErrorCode ErrorCode `json:"errorCode,omitempty"`
	// Memoized reports the result was served from the memo cache.
	Memoized bool `json:"memoized"`
}
