package cache

import (
	"fmt"
	"math/bits"
)

// SkewedCache is a two-way skewed-associative cache (Seznec's design, the
// other 1990s attack on conflict misses): each way indexes with a
// *different* XOR-based hash of the line address, so two lines that
// collide in one way usually do not collide in the other. It is the
// natural foil for prime mapping — conflict dispersion by hashing versus
// conflict elimination by a prime modulus — and the experiments compare
// both against direct mapping.
//
// Way w of 2^c sets indexes with h_w(line) = low ⊕ rot_w(mid), where low
// and mid are the two c-bit fields above the offset and rot_w is a w-bit
// left rotate within c bits.
type SkewedCache struct {
	c         uint
	mask      uint64
	lineShift uint
	ways      [2][]way // both ways share one frame array
	clock     uint64

	hist  *history
	stats Stats
}

// NewSkewed returns a two-way skewed cache of lines total lines (a power
// of two, so 2^(c) = lines/2 sets per way) with 8-byte lines.
func NewSkewed(lines int) (*SkewedCache, error) {
	if err := checkSkewed(lines); err != nil {
		return nil, err
	}
	sets := lines / 2
	c := uint(bits.TrailingZeros(uint(sets)))
	s := &SkewedCache{
		c:         c,
		mask:      uint64(sets - 1),
		lineShift: 3, // 8-byte lines, as the paper fixes
		hist:      newHistory(lines),
	}
	frames := make([]way, 2*sets)
	s.ways[0], s.ways[1] = frames[:sets:sets], frames[sets:]
	return s, nil
}

// checkSkewed checks NewSkewed's line count.
func checkSkewed(lines int) error {
	if lines < 4 || lines&(lines-1) != 0 {
		return fmt.Errorf("cache: skewed cache needs power-of-two lines ≥ 4, got %d", lines)
	}
	return nil
}

// Lines returns the total line capacity.
func (s *SkewedCache) Lines() int { return 2 * len(s.ways[0]) }

// Stats returns accumulated statistics.
func (s *SkewedCache) Stats() Stats { return s.stats }

// hash computes way w's set index for a line address.
func (s *SkewedCache) hash(w int, line uint64) int {
	low := line & s.mask
	mid := (line >> s.c) & s.mask
	if w == 1 {
		mid = ((mid << 1) | (mid >> (s.c - 1))) & s.mask
	}
	return int(low ^ mid)
}

// Access simulates one reference as a batch of one. The semantics follow
// Cache's: allocate on read and write, LRU-by-timestamp between the two
// candidate frames.
func (s *SkewedCache) Access(a Access) Result {
	accs, out := [1]Access{a}, [1]Result{}
	s.AccessBatch(accs[:], out[:])
	return out[0]
}

// AccessBatch implements BatchSim: two XOR hash probes, the recency
// compare between the two candidate frames, and the shared 3C
// classification, with the clock in a local written back once.
func (s *SkewedCache) AccessBatch(accs []Access, out []Result) {
	clock, st, h := s.clock, &s.stats, s.hist
	for i := range accs {
		a := &accs[i]
		clock++
		st.Accesses++
		if a.Write {
			st.Writes++
		} else {
			st.Reads++
		}
		line := a.Addr >> s.lineShift
		i0, i1 := s.hash(0, line), s.hash(1, line)
		e0, e1 := &s.ways[0][i0], &s.ways[1][i1]
		if e0.valid && e0.line == line {
			e0.stamp = clock
			st.Hits++
			h.touch(e0.node)
			if out != nil {
				out[i] = Result{Hit: true, Set: i0, Way: 0}
			}
			continue
		}
		if e1.valid && e1.line == line {
			e1.stamp = clock
			st.Hits++
			h.touch(e1.node)
			if out != nil {
				out[i] = Result{Hit: true, Set: i1, Way: 1}
			}
			continue
		}

		st.Misses++
		res := Result{Set: i0}
		node := h.node(line)
		h.classify(&res, st, node, a.Stream, h.touch(node))
		// Victim: an invalid frame if either candidate is free, else the
		// least recently used of the two.
		victim := e0
		if e0.valid && (!e1.valid || e1.stamp < e0.stamp) {
			victim, res.Set, res.Way = e1, i1, 1
		}
		if victim.valid {
			res.Evicted = true
			res.EvictedLine = victim.line
			st.Evictions++
			h.evicted(victim.node, a.Stream)
		}
		victim.fill(line, clock, node, false, false)
		if out != nil {
			out[i] = res
		}
	}
	s.clock = clock
}

// RepeatPass implements BatchSim as Cache's does for a pass that
// evicted nothing: it is rerun as all hits. The skewed cache counts no
// memory writes. A pass that evicted is never folded, whatever runs
// says: a line's two candidate frames lie in different sets of the two
// ways, so the cache is not an LRU stack, and whether a reference hits
// depends on more than the references since its line's last use.
func (s *SkewedCache) RepeatPass(pass Stats, times, _ uint64) bool {
	if pass.Evictions != 0 {
		return false
	}
	s.clock += s.stats.repeatHits(pass, times)
	return true
}

// Describe returns a short human-readable description.
func (s *SkewedCache) Describe() string { return describeSkewed(len(s.ways[0])) }

// describeSkewed is SkewedCache.Describe's format, shared with
// Spec.Describe.
func describeSkewed(sets int) string {
	return fmt.Sprintf("skewed 2-way %d sets × 8B lines (xor)", sets)
}

// Flush invalidates every line and clears statistics and history, in
// place: nothing is reallocated.
func (s *SkewedCache) Flush() {
	clear(s.ways[0])
	clear(s.ways[1])
	s.clock = 0
	s.stats = Stats{}
	s.hist.reset()
}
