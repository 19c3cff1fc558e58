package cache

// Batched execution. Cache, SkewedCache and VictimCache each write their
// hit, miss, eviction and classification logic once, in AccessBatch;
// their Access is a batch of one over stack arrays. PrefetchCache is
// inherently sequential (a prefetch issued for one reference changes
// what the next sees), so its AccessBatch loops over its Access, which
// drives the wrapped Cache's batch loop.
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

// BatchSim is implemented by organisations with a devirtualized batch
// fast path. AccessBatch processes accs in order, exactly as len(accs)
// sequential Access calls would; when out is non-nil it must have at
// least len(accs) elements and out[i] receives the Result of accs[i].
type BatchSim interface {
	Sim
	AccessBatch(accs []Access, out []Result)
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
