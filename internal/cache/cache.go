package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// StreamNone marks an access that belongs to no particular vector stream;
// its conflict misses are classified but not attributed to self/cross
// interference.
const StreamNone = -1

// Access is one memory reference presented to a cache.
type Access struct {
	// Addr is the byte address.
	Addr uint64
	// Write marks a store; everything else is a load.
	Write bool
	// Stream identifies the vector stream the access belongs to, for
	// interference attribution. Use StreamNone when unknown.
	Stream int
}

// Result reports the outcome of one access.
type Result struct {
	Hit  bool
	Kind MissKind
	// Set and Way locate the line after the access.
	Set, Way int
	// Evicted reports that a valid line was displaced.
	Evicted bool
	// EvictedLine is the displaced line address when Evicted.
	EvictedLine uint64
	// SelfInterference / CrossInterference attribute a conflict miss to
	// the stream that previously evicted this line.
	SelfInterference  bool
	CrossInterference bool
}

// way is one line frame, 24 bytes: the flags and the node share the
// last word.
type way struct {
	line uint64
	// stamp orders the frames of a set for replacement: the clock of
	// the last use under LRU, of the fill under FIFO. Either way the
	// victim is the valid frame with the least stamp.
	stamp      uint64
	valid      bool
	prefetched bool  // filled by a prefetch, not yet demand-touched
	dirty      bool  // written since fill (write-back mode)
	node       int32 // the line's history node
}

// fill makes w a valid frame holding line. It assigns field by field: a
// composite literal is built on the stack with narrow stores and copied
// out with wide loads, which the processor cannot forward, and that
// stall cost about a tenth of a classifying miss.
func (w *way) fill(line, stamp uint64, node int32, dirty, prefetched bool) {
	w.line, w.stamp, w.node = line, stamp, node
	w.valid, w.dirty, w.prefetched = true, dirty, prefetched
}

// Cache is a set-associative cache simulator; see package documentation.
// It is not safe for concurrent use.
//
// New backs every set with one frame array and builds the
// classification history, whose line→node index is the cache's only
// line table. A set narrower than wideWays is searched by scanning its
// ways, and its victim is found by scanning them again. A set at least
// wideWays wide (a fully-associative cache is one set of every line)
// costs O(1) in its ways instead: the node of a line it holds names the
// frame, so a lookup is the history's probe, and New also builds a
// recency list threaded through the frames of each set and a fill count
// per set. Flush clears the frames, the lists and the history in place,
// keeping every table's capacity, so a flushed cache reused for a job no
// larger than an earlier one allocates nothing.
type Cache struct {
	cfg       Config
	lineShift uint
	frames    []way // set s is frames[s*cfg.Ways : (s+1)*cfg.Ways]
	clock     uint64
	rng       *rand.Rand // Random policy only

	// Wide sets only. Frames are numbered across the whole array, so a
	// node's frame number places it in its set: a line is only ever
	// filled into the set its address maps to.
	wide  bool
	links []link    // by frame, in its set's recency list
	sets  []wideSet // by set

	hist *history // 3C and interference history, and the line index

	stats          Stats
	prefetchWasted uint64 // prefetched lines evicted before demand touch

	scratch []int // AccessBatch set-index buffer, reused across batches

	// moved counts the fills that put a line into a frame other than
	// the one it last left; movedAt is its value at the last RepeatPass
	// call. See steady.
	moved, movedAt uint64
}

// wideWays is the associativity from which a set is found through the
// history's line index rather than by a scan of its ways.
// BenchmarkWideSets measures both strategies at 4 to 512 ways on
// hit-heavy and miss-heavy traces: at 8 ways the scan is still faster
// on hits though slower on misses, and from 16 the index wins both
// (EXPERIMENTS.md has the table).
const wideWays = 16

// wideSet is the bookkeeping of one wide set besides its frames' names
// in the history's nodes. Only Flush invalidates a frame, so the valid
// ways are always the first filled ones, and way filled is the first
// invalid one. The recency list orders the valid frames by stamp, most
// recent at the head: by use under LRU and Random, by fill under FIFO.
// Stamps are unique clock values, so the tail is the frame with the
// least stamp, the victim a scan would pick.
type wideSet struct {
	filled int32
	order  recency
}

// New validates cfg and returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.LineBytes == 0 {
		cfg.LineBytes = DefaultLineBytes
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		frames:    make([]way, cfg.Mapper.Sets()*cfg.Ways),
		hist:      newHistory(cfg.Mapper.Sets() * cfg.Ways),
	}
	if cfg.Policy == Random {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	if cfg.Ways >= wideWays {
		c.makeWide()
	}
	return c, nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration (with defaults filled in).
func (c *Cache) Config() Config { return c.cfg }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return c.cfg.Mapper.Sets() * c.cfg.Ways }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics but keeps cache contents and the
// compulsory-miss history.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates every line and clears statistics, classification
// history and a wide cache's recency lists, in place: nothing is
// reallocated. The Random policy's source is re-seeded from
// Config.Seed, so a flushed cache replays exactly as a fresh one.
func (c *Cache) Flush() {
	clear(c.frames)
	if c.rng != nil {
		c.rng.Seed(c.cfg.Seed)
	}
	if c.wide {
		c.resetSets()
	}
	c.clock = 0
	c.stats = Stats{}
	c.prefetchWasted = 0
	c.hist.reset()
}

// LineAddr returns the line address of a byte address under this cache's
// line size.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// set returns the frames of set i.
func (c *Cache) set(i int) []way {
	lo, hi := i*c.cfg.Ways, (i+1)*c.cfg.Ways
	return c.frames[lo:hi:hi]
}

// Utilization returns the fraction of lines currently valid.
func (c *Cache) Utilization() float64 {
	valid := 0
	for i := range c.frames {
		if c.frames[i].valid {
			valid++
		}
	}
	return float64(valid) / float64(c.Lines())
}

// Contains reports whether the line holding byte address addr is cached.
func (c *Cache) Contains(addr uint64) bool {
	line := c.LineAddr(addr)
	j, _, _ := c.find(c.cfg.Mapper.Index(line), line)
	return j >= 0
}

// find returns the way of set that holds line, or -1 with the slot and
// node that line's probe of the history's index found, where a miss
// adds the node if it is indexEmpty. A wide set costs that one probe; a
// narrow one scans its ways, and probes only when the line is absent.
// AccessBatch inlines the same lookup.
func (c *Cache) find(set int, line uint64) (j int, slot uint64, node int32) {
	h := c.hist
	if c.wide {
		slot, node = h.index.find(line, h.lines)
		return c.wayOf(set, node), slot, node
	}
	if j = scanWays(c.set(set), line); j >= 0 {
		return j, 0, indexEmpty
	}
	slot, node = h.index.find(line, h.lines)
	return -1, slot, node
}

// wayOf returns the way of wide set that holds node n's line, or -1
// when n is indexEmpty or its line is not held.
func (c *Cache) wayOf(set int, n int32) int {
	if n == indexEmpty {
		return -1
	}
	if f := &c.hist.facts[n]; f.flags&nodeHeld != 0 {
		return int(f.frame) - set*c.cfg.Ways
	}
	return -1
}

func scanWays(ways []way, line uint64) int {
	for j := range ways {
		if ways[j].valid && ways[j].line == line {
			return j
		}
	}
	return -1
}

// Access simulates one reference and returns its outcome. Both loads and
// stores allocate (the paper's CC-model assumes writes are buffered and do
// not stall the pipeline; allocation policy only affects contents). It is
// a batch of one, so AccessBatch is the only implementation of the
// organisation's semantics.
func (c *Cache) Access(a Access) Result {
	accs, out := [1]Access{a}, [1]Result{}
	c.AccessBatch(accs[:], out[:])
	return out[0]
}

// AccessBatch implements BatchSim. Set indices are computed first by a
// loop specialised on the concrete mapper, so no reference pays a
// virtual Mapper.Index call; then one loop, for every associativity and
// policy, hits, misses, classifies and evicts, with the LRU clock in a
// local written back once per batch. A narrow set is searched by a scan
// of its ways; a wide one costs one probe of the history's index, whose
// slot adds the line's node on a miss, and its victim comes from the
// fill count or the recency list's tail, so a reference to a
// fully-associative cache costs O(1) in its lines. Either way a miss
// probes the index once.
func (c *Cache) AccessBatch(accs []Access, out []Result) {
	if len(accs) == 0 {
		return
	}
	if cap(c.scratch) < len(accs) {
		c.scratch = make([]int, len(accs))
	}
	idx := c.scratch[:len(accs)]
	shift := c.lineShift
	switch m := c.cfg.Mapper.(type) {
	case DirectMapper:
		mask := m.mask
		for i := range accs {
			idx[i] = int((accs[i].Addr >> shift) & mask)
		}
	case PrimeMapper:
		mod := m.mod
		for i := range accs {
			idx[i] = int(mod.Reduce(accs[i].Addr >> shift))
		}
	case ModuloMapper:
		if m.sets == 1 { // fully associative: set 0, with no division
			clear(idx)
		} else {
			sets := uint64(m.sets)
			for i := range accs {
				idx[i] = int((accs[i].Addr >> shift) % sets)
			}
		}
	default:
		mp := c.cfg.Mapper
		for i := range accs {
			idx[i] = mp.Index(accs[i].Addr >> shift)
		}
	}

	clock, st := c.clock, &c.stats
	wb, h, nw, wide := c.cfg.WriteBack, c.hist, c.cfg.Ways, c.wide
	restamp := c.cfg.Policy != FIFO // a hit is a use; FIFO keeps fill order
	for i := range accs {
		a := &accs[i]
		clock++
		st.Accesses++
		if a.Write {
			st.Writes++
			if !wb {
				st.MemoryWrites++
			}
		} else {
			st.Reads++
		}
		line := a.Addr >> shift
		set := idx[i]
		ways := c.frames[set*nw : set*nw+nw : set*nw+nw]
		// find, with the scan inlined: find itself is too large for the
		// compiler to inline, and a call per reference slows the
		// narrow organisations by a fifth. A wide set keeps the probe's
		// slot and node, so a miss adds the node without a second one.
		var slot uint64
		node := int32(indexEmpty)
		j := -1
		if wide {
			slot, node = h.index.find(line, h.lines)
			j = c.wayOf(set, node)
		} else {
			j = scanWays(ways, line)
		}
		if j >= 0 {
			e := &ways[j]
			if restamp {
				e.stamp = clock
				if wide {
					c.sets[set].order.use(c.links, int32(set*nw+j))
				}
			}
			if a.Write && wb {
				e.dirty = true
			}
			st.Hits++
			if out != nil {
				out[i] = Result{Hit: true, Set: set, Way: j}
			}
			// The shadow sees every reference, hit or miss, so the 3C
			// split stays consistent.
			h.touch(e.node)
			continue
		}

		st.Misses++
		res := Result{Set: set}
		if !wide {
			slot, node = h.index.find(line, h.lines)
		}
		if node == indexEmpty {
			node = h.add(slot, line)
		}
		h.classify(&res, st, node, a.Stream, h.touch(node))
		victim := 0 // a one-way set's only frame; no policy to consult
		if len(ways) > 1 {
			victim = c.pickVictim(set, ways)
		}
		e := &ways[victim]
		if e.valid {
			res.Evicted = true
			res.EvictedLine = e.line
			st.Evictions++
			c.evict(e, a.Stream)
		}
		c.place(set, victim, node)
		e.fill(line, clock, node, a.Write && wb, false)
		res.Way = victim
		if out != nil {
			out[i] = res
		}
	}
	c.clock = clock
}

// RepeatPass implements BatchSim. Once a pass evicts nothing, each run
// of it hits on every reference, and a store hit reaches memory only
// under write-through (a write-back line the pass stored to is dirty
// already). A pass that evicted is a whole delta to repeat, when
// steady says the cache is in steady state. Either way stamps are not
// rewritten: the pass restamped its lines after every older one, in the
// order a rerun would, so the advanced clock keeps every comparison of
// stamps the same.
func (c *Cache) RepeatPass(pass Stats, times, runs uint64) bool {
	steady := c.steady(pass, runs)
	c.movedAt = c.moved
	switch {
	case pass.Evictions == 0:
		c.clock += c.stats.repeatHits(pass, times)
		if !c.cfg.WriteBack {
			c.stats.MemoryWrites += pass.Writes * times
		}
	case steady:
		c.stats.addRuns(pass, times)
		c.clock += pass.Accesses * times
	default:
		return false
	}
	return true
}

// steady reports whether the pass just completed, which evicted, is in
// steady state by BatchSim's rule. From runs 2 on, an LRU set holds the
// same lines in the same recency order at every boundary. A line that
// held frame f at the previous boundary leaves f only by eviction, so
// when no fill since the last call moved a line, each was refilled
// into f and every frame holds the line it held there. moved only
// grows, so a call longer ago than the previous boundary only makes the
// check stricter; a one-way cache never moves a line it held.
func (c *Cache) steady(pass Stats, runs uint64) bool {
	return runs >= 2 && c.rng == nil && (c.cfg.Policy == LRU || c.cfg.Ways == 1) &&
		pass.Writebacks == 0 && !(c.cfg.WriteBack && pass.Writes != 0) &&
		c.moved == c.movedAt
}

// evict accounts for frame e's valid line leaving the cache for a
// reference of stream, on a demand miss or a prefetch fill alike: a
// prefetched line no demand touched was wasted, a dirty one is written
// back, and the history records the evictor. The caller counts a
// demand eviction.
func (c *Cache) evict(e *way, stream int) {
	if e.prefetched {
		c.prefetchWasted++
	}
	if e.dirty {
		c.stats.Writebacks++
		c.stats.MemoryWrites++
	}
	c.hist.evicted(e.node, stream)
}

// pickVictim returns the way of set to fill: the first invalid way,
// else the policy's choice among the valid ones. A wide set reads both
// from its bookkeeping; a narrow one scans for them.
func (c *Cache) pickVictim(set int, ways []way) int {
	if c.wide {
		s := &c.sets[set]
		switch {
		case int(s.filled) < len(ways):
			return int(s.filled)
		case c.cfg.Policy == Random:
			return c.rng.Intn(len(ways))
		default:
			return int(s.order.tail) - set*len(ways)
		}
	}
	for i := range ways {
		if !ways[i].valid {
			return i
		}
	}
	if c.cfg.Policy == Random {
		return c.rng.Intn(len(ways))
	}
	oldest := 0 // least recently used (LRU) or filled (FIFO)
	for i := 1; i < len(ways); i++ {
		if ways[i].stamp < ways[oldest].stamp {
			oldest = i
		}
	}
	return oldest
}

// place records, before the frame is filled, that way j of set takes
// node n's line: the node names the frame, and moved counts the fill if
// the line last left another frame (a line's first fill left none). A
// wide set also keeps its bookkeeping: the evicted line, if any, is no
// longer held, n's is, and the frame moves to the front of the recency
// list.
func (c *Cache) place(set, j int, n int32) {
	f := int32(set*c.cfg.Ways + j)
	facts := c.hist.facts
	if last := facts[n].frame; last >= 0 && last != f {
		c.moved++
	}
	facts[n].frame = f
	if !c.wide {
		return
	}
	s := &c.sets[set]
	if w := &c.frames[f]; w.valid {
		facts[w.node].flags &^= nodeHeld
		s.order.unlink(c.links, f)
	} else {
		s.filled++
	}
	facts[n].flags |= nodeHeld
	s.order.pushFront(c.links, f)
}

// makeWide gives an empty cache the recency lists and the fill counts
// of wide sets.
func (c *Cache) makeWide() {
	c.wide = true
	c.links = make([]link, len(c.frames))
	c.sets = make([]wideSet, c.cfg.Mapper.Sets())
	c.resetSets()
}

// resetSets empties every wide set's bookkeeping.
func (c *Cache) resetSets() {
	for i := range c.sets {
		c.sets[i].filled = 0
		c.sets[i].order.reset()
	}
}

// Describe returns a short human-readable description of the organisation.
func (c *Cache) Describe() string {
	return describeCache(c.cfg.Mapper.Name(), c.cfg.Mapper.Sets(), c.cfg.Ways, c.cfg.LineBytes, c.cfg.Policy)
}

// describeCache is Cache.Describe's format, shared with Spec.Describe.
func describeCache(mapper string, sets, ways, lineBytes int, policy Policy) string {
	return fmt.Sprintf("%s-mapped %d sets × %d ways × %dB lines (%s)", mapper, sets, ways, lineBytes, policy)
}
