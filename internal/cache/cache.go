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

// way is one line frame, 24 bytes: the flags share the last word.
type way struct {
	line uint64
	// stamp orders the frames of a set for replacement: the clock of
	// the last use under LRU, of the fill under FIFO. Either way the
	// victim is the valid frame with the least stamp.
	stamp      uint64
	valid      bool
	prefetched bool // filled by a prefetch, not yet demand-touched
	dirty      bool // written since fill (write-back mode)
}

// Cache is a set-associative cache simulator; see package documentation.
// It is not safe for concurrent use.
//
// New backs every set with one frame array. Flush clears the frames and
// the classification history in place, keeping every table's capacity,
// so a flushed cache reused for a job no larger than an earlier one
// allocates nothing.
type Cache struct {
	cfg       Config
	lineShift uint
	frames    []way // set s is frames[s*cfg.Ways : (s+1)*cfg.Ways]
	clock     uint64
	rng       *rand.Rand // Random policy only

	hist *history // 3C and interference history; nil when DisableClassify

	stats          Stats
	prefetchWasted uint64 // prefetched lines evicted before demand touch

	scratch []int // AccessBatch set-index buffer, reused across batches
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
	}
	if cfg.Policy == Random {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	if !cfg.DisableClassify {
		c.hist = newHistory(cfg.Mapper.Sets() * cfg.Ways)
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

// Flush invalidates every line and clears statistics and classification
// history, in place: nothing is reallocated. The Random policy's source
// keeps its state.
func (c *Cache) Flush() {
	clear(c.frames)
	c.clock = 0
	c.stats = Stats{}
	c.prefetchWasted = 0
	if c.hist != nil {
		c.hist.reset()
	}
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
	for _, w := range c.set(c.cfg.Mapper.Index(line)) {
		if w.valid && w.line == line {
			return true
		}
	}
	return false
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
// local written back once per batch.
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
		sets := uint64(m.sets)
		for i := range accs {
			idx[i] = int((accs[i].Addr >> shift) % sets)
		}
	default:
		mp := c.cfg.Mapper
		for i := range accs {
			idx[i] = mp.Index(accs[i].Addr >> shift)
		}
	}

	clock, st := c.clock, &c.stats
	wb, h, nw := c.cfg.WriteBack, c.hist, c.cfg.Ways
	restamp := c.cfg.Policy != FIFO // a hit is a use; FIFO keeps fill order
next:
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
		for j := range ways {
			if e := &ways[j]; e.valid && e.line == line {
				if restamp {
					e.stamp = clock
				}
				if a.Write && wb {
					e.dirty = true
				}
				st.Hits++
				if out != nil {
					out[i] = Result{Hit: true, Set: set, Way: j}
				}
				// The shadow sees every reference, hit or miss, so the
				// 3C split stays consistent.
				if h != nil {
					h.observe(line)
				}
				continue next
			}
		}

		st.Misses++
		res := Result{Set: set}
		if h != nil {
			h.classify(&res, st, line, a.Stream, h.observe(line))
		}
		victim := 0 // a one-way set's only frame; no policy to consult
		if len(ways) > 1 {
			victim = c.pickVictim(ways)
		}
		e := &ways[victim]
		if e.valid {
			res.Evicted = true
			res.EvictedLine = e.line
			st.Evictions++
			if e.prefetched {
				c.prefetchWasted++
			}
			if e.dirty {
				st.Writebacks++
				st.MemoryWrites++
			}
			if h != nil {
				h.evicted(e.line, a.Stream)
			}
		}
		*e = way{valid: true, line: line, stamp: clock, dirty: a.Write && wb}
		res.Way = victim
		if out != nil {
			out[i] = res
		}
	}
	c.clock = clock
}

func (c *Cache) pickVictim(ways []way) int {
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

// Describe returns a short human-readable description of the organisation.
func (c *Cache) Describe() string {
	return fmt.Sprintf("%s-mapped %d sets × %d ways × %dB lines (%s)",
		c.cfg.Mapper.Name(), c.cfg.Mapper.Sets(), c.cfg.Ways, c.cfg.LineBytes, c.cfg.Policy)
}
