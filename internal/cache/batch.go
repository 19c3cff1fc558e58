package cache

// Batched execution. Cache, SkewedCache and VictimCache each write their
// hit, miss, eviction and classification logic once, in AccessBatch;
// their Access is a batch of one over stack arrays. PrefetchCache is
// inherently sequential (a prefetch issued for one reference changes
// what the next sees), so its AccessBatch loops over its Access: each
// demand access is a batch of one through the wrapped Cache's loop, and
// each prefetch fill shares that loop's lookup and eviction bookkeeping.
//
// AccessBatch amortises what a per-reference entry point pays on every
// call: Cache computes set indices in a loop devirtualized on the
// concrete mapper, the LRU clock accumulates in a local written back
// once per batch, and callers that only fold statistics pass a nil
// result slice so no per-access Result is materialised at all.
//
// Because Access is AccessBatch over one reference, the two cannot
// disagree. What remains to prove is that chunking does not matter: the
// same access sequence yields byte-identical Stats and per-access
// Results however it is split into batches (TestAccessBatchEquivalence).
// The differential-oracle campaign checks the one implementation
// against slow, obviously correct reference models.
//
// RepeatPass is the batch path's other shortcut: a replay that runs the
// same references pass after pass (trace.ReplayPatternContext) hands
// it the stats delta of the pass it just ran. When that pass evicted
// nothing, every line it touched is still resident, so each later pass
// hits on every reference. Such a pass changes no frame, no relative
// recency within a set, no wide set's list, no order of the history's
// shadow (each line is touched again before the shadow could drop it,
// since the lines all fit), no seen flag and no evictor, and a Random
// cache draws from its source only on a miss. What remains is the
// hit path's counters and the clock, which RepeatPass adds in O(1).
//
// A pass that evicts folds too, from the second run of the references
// on, in a cache whose sets are LRU stacks: a Cache under LRU, or of
// one way, with no Random source. Whether a reference hits, its 3C
// kind (the shadow is an LRU stack too) and the stream that evicted its
// line depend only on the references made since that line was last
// used (the LRU stack-distance view). Every line of the pass was used
// in the run before, so from the second run on that window is the same
// in every run, and so is each run's delta; which lines a set holds and
// in what recency order is the same at every boundary. That argument
// does not say which way a line sits in: a miss fills the way its
// victim left, so a set that cycles d lines through W ways rotates by d
// mod W ways each run, and later Results name other ways. So a Cache
// counts, as its miss path fills lines, the fills that put a line into
// a frame other than the one it last left (place), and a pass that
// evicted folds only if it made none: a line held in frame f at the
// previous boundary leaves f only by eviction, so when every refill is
// into the frame the line left, every frame holds the line it held
// there. A one-way cache never moves a line it held. A victim cache
// folds when its main array does and its buffer holds the same lines
// in the same order as at the previous boundary, which it keeps in a
// field.
//
// TestRepeatPassMatchesUnrolled, TestRepeatPassSteadyState and
// FuzzRepeatPass check that a folded replay leaves the same Stats and
// answers later references as an unrolled one does.

// BatchSim is implemented by organisations with a devirtualized batch
// fast path. AccessBatch processes accs in order, exactly as len(accs)
// sequential Access calls would; when out is non-nil it must have at
// least len(accs) elements and out[i] receives the Result of accs[i].
//
// RepeatPass accounts for times more runs of the pass just completed
// without running them, and reports whether it did. pass is the stats
// delta of that pass, the simulator's most recent references, which
// have now run runs times in a row, and each run it stands for presents
// the same references in the same order. An organisation accepts only
// when the outcome is exactly that of running them. Every Cache,
// SkewedCache and VictimCache accepts when the pass evicted nothing.
// From runs 2 on, a Cache under LRU or of one way, with no Random
// source, also accepts a pass that evicted, if it wrote nothing back,
// stored nothing under write-back, and no fill since the last call put
// a line into a frame other than the one it last left; a VictimCache
// accepts when its main array does and its buffer is as it was at the
// previous boundary. A caller asks at every pass boundary, so the last
// call is the previous boundary, one pass earlier; one longer ago only
// makes a Cache's check stricter. PrefetchCache never accepts, since
// its hits issue prefetches, and SkewedCache, whose two hashed ways are
// not an LRU stack, accepts only eviction-free passes. A simulator that
// refuses is unchanged but for what it notes for its next call.
type BatchSim interface {
	Sim
	AccessBatch(accs []Access, out []Result)
	RepeatPass(pass Stats, times, runs uint64) bool
}

var (
	_ BatchSim = (*Cache)(nil)
	_ BatchSim = (*SkewedCache)(nil)
	_ BatchSim = (*VictimCache)(nil)
	_ BatchSim = (*PrefetchCache)(nil)
)

// AccessBatch streams accs through any Sim: organisations implementing
// BatchSim take their devirtualized fast path, everything else (e.g.
// the oracle's reference simulators) falls back to a per-access loop
// with identical semantics. out may be nil when the caller only wants
// the statistics side effects.
func AccessBatch(s Sim, accs []Access, out []Result) {
	if bs, ok := s.(BatchSim); ok {
		bs.AccessBatch(accs, out)
		return
	}
	if out == nil {
		for _, a := range accs {
			s.Access(a)
		}
		return
	}
	for i, a := range accs {
		out[i] = s.Access(a)
	}
}

// repeatHits adds to st times runs of pass as all hits: the counters
// every organisation's hit path adds, without its MemoryWrites. It
// returns the references added, by which the caller advances its clock.
func (st *Stats) repeatHits(pass Stats, times uint64) uint64 {
	n := pass.Accesses * times
	st.Accesses += n
	st.Hits += n
	st.Reads += pass.Reads * times
	st.Writes += pass.Writes * times
	return n
}

// addRuns adds times runs of pass, a whole stats delta, to st.
func (st *Stats) addRuns(pass Stats, times uint64) {
	st.Accesses += pass.Accesses * times
	st.Reads += pass.Reads * times
	st.Writes += pass.Writes * times
	st.Hits += pass.Hits * times
	st.Misses += pass.Misses * times
	st.Compulsory += pass.Compulsory * times
	st.Capacity += pass.Capacity * times
	st.Conflict += pass.Conflict * times
	st.SelfInterference += pass.SelfInterference * times
	st.CrossInterference += pass.CrossInterference * times
	st.Evictions += pass.Evictions * times
	st.Writebacks += pass.Writebacks * times
	st.MemoryWrites += pass.MemoryWrites * times
}
