package cache

import "fmt"

// PrefetchKind selects one of the two vector-cache prefetching schemes of
// Fu & Patel (ISCA 1991), which the paper's §2.2 discusses as the prior
// attempt to tame long-stride vector accesses before prime mapping.
type PrefetchKind int

const (
	// PrefetchSequential fetches the next Degree sequential lines on
	// every demand miss.
	PrefetchSequential PrefetchKind = iota
	// PrefetchStride detects each stream's stride and fetches the next
	// Degree lines along it once the stride repeats.
	PrefetchStride
)

// String implements fmt.Stringer.
func (k PrefetchKind) String() string {
	switch k {
	case PrefetchSequential:
		return "sequential"
	case PrefetchStride:
		return "stride"
	default:
		return fmt.Sprintf("prefetch(%d)", int(k))
	}
}

// PrefetchStats counts prefetch outcomes.
type PrefetchStats struct {
	// Issued counts prefetch fills sent to the cache.
	Issued uint64
	// Useful counts demand accesses whose first touch hit a prefetched
	// line — misses the prefetcher removed.
	Useful uint64
	// Wasted counts prefetched lines evicted before any demand touch —
	// the cache pollution §2.2 worries about.
	Wasted uint64
}

// Accuracy returns Useful/Issued, 0 when nothing was issued.
func (s PrefetchStats) Accuracy() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.Useful) / float64(s.Issued)
}

// PrefetchCache front-ends a Cache with a prefetcher. It implements the
// same Access entry point, so kernels and traces can run against it
// unchanged.
type PrefetchCache struct {
	c      *Cache
	kind   PrefetchKind
	degree int

	// per-stream stride detection state
	lastLine   map[int]uint64
	lastStride map[int]int64
	confirmed  map[int]bool

	stats PrefetchStats
}

// NewPrefetchCache wraps c with a prefetcher of the given kind fetching
// degree lines ahead (degree ≥ 1).
func NewPrefetchCache(c *Cache, kind PrefetchKind, degree int) (*PrefetchCache, error) {
	if c == nil {
		return nil, fmt.Errorf("cache: nil cache")
	}
	if degree < 1 {
		return nil, fmt.Errorf("cache: prefetch degree must be ≥ 1, got %d", degree)
	}
	switch kind {
	case PrefetchSequential, PrefetchStride:
	default:
		return nil, fmt.Errorf("cache: unknown prefetch kind %d", int(kind))
	}
	return &PrefetchCache{
		c: c, kind: kind, degree: degree,
		lastLine:   make(map[int]uint64),
		lastStride: make(map[int]int64),
		confirmed:  make(map[int]bool),
	}, nil
}

// Cache returns the wrapped cache.
func (p *PrefetchCache) Cache() *Cache { return p.c }

// Stats returns the wrapped cache's demand statistics.
func (p *PrefetchCache) Stats() Stats { return p.c.Stats() }

// PrefetchStats returns the prefetcher's own counters.
func (p *PrefetchCache) PrefetchStats() PrefetchStats {
	s := p.stats
	s.Wasted = p.c.prefetchWasted
	return s
}

// Describe returns a short human-readable description.
func (p *PrefetchCache) Describe() string {
	return fmt.Sprintf("%s + %s prefetch ×%d", p.c.Describe(), p.kind, p.degree)
}

// Flush invalidates the wrapped cache and clears the stride-detection
// state and prefetch counters, in place.
func (p *PrefetchCache) Flush() {
	p.c.Flush()
	clear(p.lastLine)
	clear(p.lastStride)
	clear(p.confirmed)
	p.stats = PrefetchStats{}
}

// Access performs a demand access and then issues any prefetches the
// scheme calls for. Prefetch fills do not count as demand accesses.
func (p *PrefetchCache) Access(a Access) Result {
	r, wasPrefetched := p.c.demandAccess(a)
	if wasPrefetched {
		p.stats.Useful++
	}
	line := p.c.LineAddr(a.Addr)
	switch p.kind {
	case PrefetchSequential:
		if !r.Hit {
			for d := 1; d <= p.degree; d++ {
				p.install(line+uint64(d), a.Stream)
			}
		}
	case PrefetchStride:
		if last, ok := p.lastLine[a.Stream]; ok {
			stride := int64(line) - int64(last)
			if stride != 0 && stride == p.lastStride[a.Stream] {
				if p.confirmed[a.Stream] {
					for d := 1; d <= p.degree; d++ {
						p.install(uint64(int64(line)+stride*int64(d)), a.Stream)
					}
				}
				p.confirmed[a.Stream] = true
			} else {
				p.confirmed[a.Stream] = false
			}
			p.lastStride[a.Stream] = stride
		}
		p.lastLine[a.Stream] = line
	}
	return r
}

// AccessBatch implements BatchSim: a direct (non-interface) per-access
// loop. Prefetch installs issued for element i change what element i+1
// sees, so the prefetcher is inherently sequential; the batch still
// removes the interface dispatch and Result copy of the generic
// fallback.
func (p *PrefetchCache) AccessBatch(accs []Access, out []Result) {
	if out == nil {
		for i := range accs {
			p.Access(accs[i])
		}
		return
	}
	for i := range accs {
		out[i] = p.Access(accs[i])
	}
}

// RepeatPass implements BatchSim and always refuses: a demand hit can
// issue prefetches, whose fills can evict lines the next pass needs,
// and the wrapped cache's Stats do not count those evictions.
func (p *PrefetchCache) RepeatPass(Stats, uint64) bool { return false }

func (p *PrefetchCache) install(line uint64, stream int) {
	if p.c.installLine(line, stream) {
		p.stats.Issued++
	}
}

// demandAccess is Access plus a report of whether the hit line was a
// not-yet-touched prefetch.
func (c *Cache) demandAccess(a Access) (Result, bool) {
	line := c.LineAddr(a.Addr)
	set := c.cfg.Mapper.Index(line)
	wasPrefetched := false
	if j := c.find(set, line); j >= 0 {
		w := &c.set(set)[j]
		wasPrefetched = w.prefetched
		w.prefetched = false
	}
	return c.Access(a), wasPrefetched
}

// installLine quietly fills a line (no demand statistics), marking it
// prefetched. It reports whether a fill actually happened (false when the
// line was already resident).
func (c *Cache) installLine(line uint64, stream int) bool {
	set := c.cfg.Mapper.Index(line)
	if c.find(set, line) >= 0 {
		return false
	}
	ways := c.set(set)
	c.clock++
	victim := c.pickVictim(set, ways)
	if ways[victim].valid {
		if ways[victim].prefetched {
			c.prefetchWasted++
		}
		c.hist.evicted(ways[victim].node, stream)
	}
	// The line gets a history node, which a later demand hit touches,
	// but neither its seen flag nor the shadow changes here: the 3C
	// model classifies demand behaviour only, and prefetches are not
	// program references.
	node := c.hist.node(line)
	if c.wide {
		c.refill(set, victim, node)
	}
	ways[victim].fill(line, c.clock, node, false, true)
	return true
}
