package cache

import "primecache/internal/mersenne"

// Analytic fast path for strided sweeps over one-way organisations.
//
// A P-pass, n-element, stride-s vector sweep is the paper's canonical
// workload, and for direct- and prime-mapped caches its trace-driven
// outcome has a closed form: with C sets, the visited set sequence is an
// arithmetic progression mod C, so the lines of the sweep distribute
// over an orbit of o = C/gcd(s mod C, C) sets, q = n/o of them per set
// (q+1 for the first r = n mod o orbit positions). From that, pass-level
// hit/miss/classification counts follow exactly — no per-reference
// simulation — so a huge vector job costs O(passes) instead of O(n·P).
//
// The derivation assumes every reference addresses a distinct line (one
// word per line, the paper's fixed 8-byte geometry) and that the int64
// address accumulator of trace.Strided never leaves [0, 2^63): within
// that range uint64 conversion is the identity, so residues mod C step
// uniformly by s mod C. StridedSweepStats reports ok=false whenever any
// precondition fails and callers fall back to replay. Callers reach it
// through trace.ClosedForm, which maps a pattern to its sweep and checks
// the formulas against a shrunken replay; the server runs that check on
// every job it answers in closed form, and the oracle property
// strided-analytic-equals-replay compares whole jobs with replay.

// StridedSweepStats returns the exact statistics a freshly built spec
// cache would accumulate replaying trace.Strided(startWord, strideWords,
// n, stream) passes times, or ok=false when the sweep is outside the
// model (non one-way organisation, zero stride, or address range the
// closed form cannot guarantee).
func StridedSweepStats(spec Spec, startWord uint64, strideWords int64, n, passes, stream int) (Stats, bool) {
	first, steady, ok := stridedSweepPasses(spec, startWord, strideWords, n, stream)
	if !ok || passes < 1 {
		return Stats{}, false
	}
	total := first
	total.addRuns(steady, uint64(passes-1))
	return total, true
}

// stridedSweepPasses computes the first-pass and steady-state (pass ≥ 2)
// statistics of the sweep. Passes 2..P are identical: at the end of any
// pass each visited set holds the last line of its orbit position, which
// is exactly the state pass 2 started from.
func stridedSweepPasses(spec Spec, startWord uint64, strideWords int64, n, stream int) (first, steady Stats, ok bool) {
	sets, ok := analyticSets(spec)
	if !ok || n < 1 || strideWords == 0 {
		return Stats{}, Stats{}, false
	}
	if !StridedAddrsSafe(startWord, strideWords, n) {
		return Stats{}, Stats{}, false
	}
	C := int64(sets)

	// Orbit structure of the visited sets.
	s := strideWords % C
	if s < 0 {
		s += C
	}
	g := gcd64(s, C) // gcd(0, C) = C: stride multiples of C hammer one set
	o := C / g
	q := int64(n) / o
	r := int64(n) % o

	// Pass 1: every line is new — all compulsory misses. A set's k-th
	// visit (k ≥ 2) evicts, so evictions = n − (distinct sets visited).
	distinct := o
	if int64(n) < o {
		distinct = int64(n)
	}
	first = Stats{
		Accesses:   uint64(n),
		Reads:      uint64(n),
		Misses:     uint64(n),
		Compulsory: uint64(n),
		Evictions:  uint64(n) - uint64(distinct),
	}

	// Pass ≥ 2: a line hits iff it is alone in its set (the resident
	// line of a multi-line set is always the one mapped there last,
	// never the one about to be accessed). Single-line sets exist only
	// when q ≤ 1.
	var singles int64
	switch {
	case q == 0:
		singles = int64(n)
	case q == 1:
		singles = o - r
	}
	misses := uint64(int64(n) - singles)
	steady = Stats{
		Accesses:  uint64(n),
		Reads:     uint64(n),
		Hits:      uint64(singles),
		Misses:    misses,
		Evictions: misses, // every visited set is full after pass 1
	}
	// 3C split: the shadow directory holds the C most recently used
	// lines. When n ≤ C the whole sweep fits, every steady miss is a
	// shadow hit — a conflict miss, attributed to the sweep's own
	// stream (it evicted every one of its victims). When n > C the
	// re-accessed line always left the shadow a full pass ago: capacity.
	if int64(n) <= C {
		steady.Conflict = misses
		if stream != StreamNone {
			steady.SelfInterference = misses
		}
	} else {
		steady.Capacity = misses
	}
	return first, steady, true
}

// analyticSets returns the set count of organisations the closed form
// covers: one-way mappings whose set index is lineAddr mod sets — the
// prime- and direct-mapped kinds.
func analyticSets(spec Spec) (int, bool) {
	spec = spec.Normalize()
	switch spec.Kind {
	case "prime":
		if mersenne.IsPrimeExponent(spec.C) {
			return 1<<spec.C - 1, true
		}
		return 0, false
	case "direct":
		if spec.Lines > 0 && spec.Lines&(spec.Lines-1) == 0 {
			return spec.Lines, true
		}
		return 0, false
	default:
		return 0, false
	}
}

// StridedAddrsSafe reports whether every address of an n-element
// strided sweep (n >= 1) lies in [0, 2^62), so trace.Strided's int64
// accumulator never overflows, uint64 conversion is the identity and
// set residues step uniformly. For a prime modulus this matters because
// 2^64 is not ≡ 0 (mod 2^c − 1): a wrap of the accumulator would shift
// every subsequent residue. It is the domain of the closed form and of
// core's vector operations.
func StridedAddrsSafe(startWord uint64, strideWords int64, n int) bool {
	const lim = int64(1) << 62
	if startWord >= uint64(lim) {
		return false
	}
	if n == 1 {
		return true
	}
	abs := strideWords
	if abs < 0 {
		abs = -abs
	}
	if abs >= lim/int64(n-1) {
		return false
	}
	last := int64(startWord) + int64(n-1)*strideWords
	return last >= 0 && last < lim
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
