package oracle

import (
	"fmt"
	"math/big"
	"math/rand"

	"primecache/internal/cache"
)

// refWordBytes is the line size every Spec-built organisation uses (the
// paper's fixed 8-byte line).
const refWordBytes = 8

// NewRefSim returns the naive reference simulator for spec: the same
// observable behaviour as spec.Build() — per-access Result.Hit, miss
// kind, interference attribution, evictions, and the final Stats — but
// arrived at with maps, slices, and math/big division instead of bit
// masks, end-around-carry folds, and linked-list LRU structures. All
// seven Spec kinds are covered. Like the fast simulators, the result is
// not safe for concurrent use.
func NewRefSim(spec cache.Spec) (cache.Sim, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case "prime":
		return newRefAssoc(spec, bigModIndex(spec.C), (1<<spec.C)-1, 1, cache.LRU, true)
	case "direct":
		return newRefAssoc(spec, plainModIndex(spec.Lines), spec.Lines, 1, cache.LRU, true)
	case "assoc":
		pol, err := cache.ParsePolicy(spec.Policy)
		if err != nil {
			return nil, err
		}
		sets := spec.Lines / spec.Ways
		return newRefAssoc(spec, plainModIndex(sets), sets, spec.Ways, pol, true)
	case "full":
		return newRefAssoc(spec, func(uint64) int { return 0 }, 1, spec.Lines, cache.LRU, true)
	case "prime-assoc":
		return newRefAssoc(spec, bigModIndex(spec.C), (1<<spec.C)-1, spec.Ways, cache.LRU, true)
	case "skewed":
		return newRefSkewed(spec.Lines)
	case "victim":
		return newRefVictim(spec.Lines, spec.VictimLines)
	default:
		return nil, fmt.Errorf("oracle: unknown spec kind %q", spec.Kind)
	}
}

// bigModIndex returns a set-index function computing lineAddr mod
// (2^c − 1) by big.Int division — the architectural definition the
// hardware EAC adder is supposed to implement.
func bigModIndex(c uint) func(uint64) int {
	m := new(big.Int).Lsh(big.NewInt(1), c)
	m.Sub(m, big.NewInt(1))
	x := new(big.Int)
	return func(line uint64) int {
		x.SetUint64(line)
		return int(x.Mod(x, m).Uint64())
	}
}

// plainModIndex returns lineAddr mod sets by integer division, where
// the fast path masks low bits.
func plainModIndex(sets int) func(uint64) int {
	return func(line uint64) int { return int(line % uint64(sets)) }
}

// refShadow is a fully-associative LRU directory kept as a plain slice
// in LRU→MRU order — the reference mirror of the fast simulator's
// map-plus-linked-list shadow used for the 3C miss split.
type refShadow struct {
	cap   int
	order []uint64
}

// touch reports whether line was present, promoting or inserting it and
// evicting the least-recently-used entry when over capacity.
func (s *refShadow) touch(line uint64) bool {
	for i, l := range s.order {
		if l == line {
			s.order = append(append(s.order[:i:i], s.order[i+1:]...), line)
			return true
		}
	}
	s.order = append(s.order, line)
	if len(s.order) > s.cap {
		s.order = s.order[1:]
	}
	return false
}

func (s *refShadow) reset() { s.order = nil }

// refEntry is one cached line in a reference simulator.
type refEntry struct {
	line    uint64
	lastUse uint64
	filled  uint64
}

// refAssoc is the naive set-associative simulator behind the prime,
// direct, assoc, full, and prime-assoc kinds: per set, a map from way
// slot to entry; hits and victims found by linear scan.
type refAssoc struct {
	desc           string
	sets, ways     int
	policy         cache.Policy
	index          func(uint64) int
	countMemWrites bool // the array cache counts write-through traffic; skewed does not

	frames    []map[int]*refEntry
	clock     uint64
	rng       *rand.Rand
	seen      map[uint64]bool
	shadow    *refShadow
	evictedBy map[uint64]int
	stats     cache.Stats
}

func newRefAssoc(spec cache.Spec, index func(uint64) int, sets, ways int, policy cache.Policy, memWrites bool) (*refAssoc, error) {
	if sets <= 0 || ways <= 0 {
		return nil, fmt.Errorf("oracle: degenerate geometry %d sets × %d ways", sets, ways)
	}
	r := &refAssoc{
		desc:           "ref " + spec.String(),
		sets:           sets,
		ways:           ways,
		policy:         policy,
		index:          index,
		countMemWrites: memWrites,
	}
	r.resetState()
	return r, nil
}

func (r *refAssoc) resetState() {
	r.frames = make([]map[int]*refEntry, r.sets)
	for i := range r.frames {
		r.frames[i] = map[int]*refEntry{}
	}
	r.clock = 0
	// The fast cache seeds its Random-policy source with Config.Seed,
	// which Spec.Build leaves at 0, and re-seeds it on Flush; randomness
	// is a specified input here, not a theorem, so the reference draws
	// from an identically-seeded source.
	r.rng = rand.New(rand.NewSource(0))
	r.seen = map[uint64]bool{}
	r.shadow = &refShadow{cap: r.sets * r.ways}
	r.evictedBy = map[uint64]int{}
	r.stats = cache.Stats{}
}

// Access implements cache.Sim with the semantics of Cache.Access in
// write-through mode (the only mode Spec can express).
func (r *refAssoc) Access(a cache.Access) cache.Result {
	r.clock++
	r.stats.Accesses++
	if a.Write {
		r.stats.Writes++
		if r.countMemWrites {
			r.stats.MemoryWrites++
		}
	} else {
		r.stats.Reads++
	}

	line := a.Addr / refWordBytes
	set := r.index(line)

	firstRef := !r.seen[line]
	r.seen[line] = true
	shadowHit := r.shadow.touch(line)

	for slot, e := range r.frames[set] {
		if e.line == line {
			e.lastUse = r.clock
			r.stats.Hits++
			return cache.Result{Hit: true, Set: set, Way: slot}
		}
	}

	r.stats.Misses++
	res := cache.Result{Set: set}
	r.classify(&res, a, line, firstRef, shadowHit)

	slot := r.pickVictim(set)
	if e, ok := r.frames[set][slot]; ok {
		res.Evicted = true
		res.EvictedLine = e.line
		r.stats.Evictions++
		r.evictedBy[e.line] = a.Stream
	}
	r.frames[set][slot] = &refEntry{line: line, lastUse: r.clock, filled: r.clock}
	res.Way = slot
	return res
}

// classify assigns the 3C kind and interference attribution exactly as
// the fast simulators do: first reference → compulsory; present in the
// equal-capacity fully-associative shadow → conflict (attributed to the
// stream that last evicted the line); otherwise capacity.
func (r *refAssoc) classify(res *cache.Result, a cache.Access, line uint64, firstRef, shadowHit bool) {
	switch {
	case firstRef:
		res.Kind = cache.MissCompulsory
		r.stats.Compulsory++
	case shadowHit:
		res.Kind = cache.MissConflict
		r.stats.Conflict++
		if evictor, ok := r.evictedBy[line]; ok && a.Stream != cache.StreamNone && evictor != cache.StreamNone {
			if evictor == a.Stream {
				res.SelfInterference = true
				r.stats.SelfInterference++
			} else {
				res.CrossInterference = true
				r.stats.CrossInterference++
			}
		}
	default:
		res.Kind = cache.MissCapacity
		r.stats.Capacity++
	}
}

// pickVictim mirrors the fast cache's choice: the lowest-numbered free
// way slot, else the policy's pick. Timestamps are globally unique (one
// clock tick per access), so the LRU/FIFO minima are unambiguous.
func (r *refAssoc) pickVictim(set int) int {
	occ := r.frames[set]
	for slot := 0; slot < r.ways; slot++ {
		if _, ok := occ[slot]; !ok {
			return slot
		}
	}
	switch r.policy {
	case cache.FIFO:
		best := 0
		for slot := 1; slot < r.ways; slot++ {
			if occ[slot].filled < occ[best].filled {
				best = slot
			}
		}
		return best
	case cache.Random:
		return r.rng.Intn(r.ways)
	default: // LRU
		best := 0
		for slot := 1; slot < r.ways; slot++ {
			if occ[slot].lastUse < occ[best].lastUse {
				best = slot
			}
		}
		return best
	}
}

// Stats implements cache.Sim.
func (r *refAssoc) Stats() cache.Stats { return r.stats }

// Describe implements cache.Sim.
func (r *refAssoc) Describe() string { return r.desc }

// Flush implements cache.Sim: contents, statistics, classification
// history and the Random-policy source return to their initial state,
// as in the fast cache.
func (r *refAssoc) Flush() { r.resetState() }

// refSkewed is the reference mirror of cache.SkewedCache: two ways of
// 2^c sets, each indexed by a different hash of the line address.
type refSkewed struct {
	sets int // per way
	c    uint

	ways  [2][]*refEntry
	clock uint64

	seen      map[uint64]bool
	shadow    *refShadow
	evictedBy map[uint64]int
	stats     cache.Stats
}

func newRefSkewed(lines int) (*refSkewed, error) {
	if lines < 4 || lines&(lines-1) != 0 {
		return nil, fmt.Errorf("oracle: skewed reference needs power-of-two lines ≥ 4, got %d", lines)
	}
	sets := lines / 2
	c := uint(0)
	for 1<<c < sets {
		c++
	}
	s := &refSkewed{sets: sets, c: c}
	s.reset()
	return s, nil
}

func (s *refSkewed) reset() {
	s.ways[0] = make([]*refEntry, s.sets)
	s.ways[1] = make([]*refEntry, s.sets)
	s.clock = 0
	s.seen = map[uint64]bool{}
	s.shadow = &refShadow{cap: 2 * s.sets}
	s.evictedBy = map[uint64]int{}
	s.stats = cache.Stats{}
}

// hash mirrors SkewedCache.hash with division arithmetic: way 0 is
// low ⊕ mid, way 1 rotates mid left by one bit within c bits first.
func (s *refSkewed) hash(w int, line uint64) int {
	n := uint64(s.sets)
	low := line % n
	mid := (line / n) % n
	if w == 1 {
		mid = (mid*2)%n + mid/(n/2)
	}
	return int(low ^ mid)
}

// Access implements cache.Sim with SkewedCache.Access semantics (note:
// the skewed simulator does not track write-through memory traffic).
func (s *refSkewed) Access(a cache.Access) cache.Result {
	s.clock++
	s.stats.Accesses++
	if a.Write {
		s.stats.Writes++
	} else {
		s.stats.Reads++
	}
	line := a.Addr / refWordBytes

	firstRef := !s.seen[line]
	s.seen[line] = true
	shadowHit := s.shadow.touch(line)

	idx := [2]int{s.hash(0, line), s.hash(1, line)}
	for w := 0; w < 2; w++ {
		if e := s.ways[w][idx[w]]; e != nil && e.line == line {
			e.lastUse = s.clock
			s.stats.Hits++
			return cache.Result{Hit: true, Set: idx[w], Way: w}
		}
	}

	s.stats.Misses++
	res := cache.Result{}
	switch {
	case firstRef:
		res.Kind = cache.MissCompulsory
		s.stats.Compulsory++
	case shadowHit:
		res.Kind = cache.MissConflict
		s.stats.Conflict++
		if evictor, ok := s.evictedBy[line]; ok && a.Stream != cache.StreamNone && evictor != cache.StreamNone {
			if evictor == a.Stream {
				res.SelfInterference = true
				s.stats.SelfInterference++
			} else {
				res.CrossInterference = true
				s.stats.CrossInterference++
			}
		}
	default:
		res.Kind = cache.MissCapacity
		s.stats.Capacity++
	}

	w := 0
	switch {
	case s.ways[0][idx[0]] == nil:
		w = 0
	case s.ways[1][idx[1]] == nil:
		w = 1
	case s.ways[1][idx[1]].lastUse < s.ways[0][idx[0]].lastUse:
		w = 1
	}
	if victim := s.ways[w][idx[w]]; victim != nil {
		res.Evicted = true
		res.EvictedLine = victim.line
		s.stats.Evictions++
		s.evictedBy[victim.line] = a.Stream
	}
	s.ways[w][idx[w]] = &refEntry{line: line, lastUse: s.clock, filled: s.clock}
	res.Set, res.Way = idx[w], w
	return res
}

// Stats implements cache.Sim.
func (s *refSkewed) Stats() cache.Stats { return s.stats }

// Describe implements cache.Sim.
func (s *refSkewed) Describe() string {
	return fmt.Sprintf("ref skewed 2-way %d sets", s.sets)
}

// Flush implements cache.Sim.
func (s *refSkewed) Flush() { s.reset() }

// refVictim is the reference mirror of cache.VictimCache: a direct-
// mapped reference cache backed by a small fully-associative buffer
// kept as a plain slice.
type refVictim struct {
	main   *refAssoc
	buf    []*refEntry
	clock  uint64
	hits   uint64
	misses uint64
}

func newRefVictim(lines, bufLines int) (*refVictim, error) {
	if bufLines < 1 {
		return nil, fmt.Errorf("oracle: victim buffer needs at least 1 line, got %d", bufLines)
	}
	main, err := newRefAssoc(cache.Spec{Kind: "direct", Lines: lines}.Normalize(),
		plainModIndex(lines), lines, 1, cache.LRU, true)
	if err != nil {
		return nil, err
	}
	return &refVictim{main: main, buf: make([]*refEntry, bufLines)}, nil
}

// Access implements cache.Sim with VictimCache.Access semantics: main
// array first; an evicted line parks in the buffer; a buffer hit counts
// as a swap hit and reports the combined outcome.
func (v *refVictim) Access(a cache.Access) cache.Result {
	v.clock++
	line := a.Addr / refWordBytes
	r := v.main.Access(a)
	if r.Hit {
		return r
	}
	if r.Evicted {
		v.insert(r.EvictedLine)
	}
	for i, e := range v.buf {
		if e != nil && e.line == line {
			v.buf[i] = nil
			v.hits++
			r.Hit = true
			r.Kind = cache.MissNone
			return r
		}
	}
	v.misses++
	return r
}

// insert mirrors VictimCache.insert: the first invalid buffer slot, else
// the least-recently-inserted entry (insertion timestamps are unique).
func (v *refVictim) insert(line uint64) {
	victim := 0
	for i, e := range v.buf {
		if e == nil {
			victim = i
			break
		}
		if e.lastUse < v.buf[victim].lastUse {
			victim = i
		}
	}
	v.buf[victim] = &refEntry{line: line, lastUse: v.clock}
}

// Stats implements cache.Sim: like the fast victim cache, it reports the
// main array's counters (swap hits are main-array misses).
func (v *refVictim) Stats() cache.Stats { return v.main.Stats() }

// VictimStats mirrors VictimCache.VictimStats for the two-level view.
func (v *refVictim) VictimStats() cache.VictimStats {
	return cache.VictimStats{SwapHits: v.hits, TrueMisses: v.misses}
}

// Describe implements cache.Sim.
func (v *refVictim) Describe() string {
	return fmt.Sprintf("ref direct %d lines + %d-entry victim buffer", v.main.sets, len(v.buf))
}

// Flush implements cache.Sim.
func (v *refVictim) Flush() {
	v.main.Flush()
	for i := range v.buf {
		v.buf[i] = nil
	}
	v.clock = 0
	v.hits = 0
	v.misses = 0
}
