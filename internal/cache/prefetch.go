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
// unchanged. A demand access is the wrapped cache's own Access; the
// front-end counts the prefetched lines it hits, decides what to
// prefetch and fills it.
type PrefetchCache struct {
	c      *Cache
	kind   PrefetchKind
	degree int

	// streams is the stride detector's record of each stream. A Stream
	// is any int, so a map rather than a slice.
	streams map[int]streamState

	stats PrefetchStats // Issued and Useful; the cache counts Wasted
}

// streamState is a stream's last line, the stride that reached it, and
// whether that stride repeated the one before.
type streamState struct {
	line      uint64
	stride    int64
	confirmed bool
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
	return &PrefetchCache{c: c, kind: kind, degree: degree, streams: make(map[int]streamState)}, nil
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
	clear(p.streams)
	p.stats = PrefetchStats{}
}

// Access performs a demand access and then issues any prefetches the
// scheme calls for. Prefetch fills do not count as demand accesses.
func (p *PrefetchCache) Access(a Access) Result {
	r := p.c.Access(a)
	// A hit's Set and Way name the frame, so its prefetched mark is read
	// without a second lookup, and a plain Cache's hit path pays nothing.
	if w := &p.c.set(r.Set)[r.Way]; r.Hit && w.prefetched {
		w.prefetched = false
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
		s, ok := p.streams[a.Stream]
		if ok {
			stride := int64(line) - int64(s.line)
			if stride != 0 && stride == s.stride {
				if s.confirmed {
					for d := 1; d <= p.degree; d++ {
						p.install(uint64(int64(line)+stride*int64(d)), a.Stream)
					}
				}
				s.confirmed = true
			} else {
				s.confirmed = false
			}
			s.stride = stride
		}
		s.line = line
		p.streams[a.Stream] = s
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
func (p *PrefetchCache) RepeatPass(Stats, uint64, uint64) bool { return false }

// install fills line into the wrapped cache for stream unless it is
// resident, marking the frame prefetched, as AccessBatch's miss path
// does but with no demand statistics: the node's seen flag and the
// shadow stay as they are, since the 3C model classifies program
// references only, and the victim is not a demand eviction.
func (p *PrefetchCache) install(line uint64, stream int) {
	c := p.c
	set := c.cfg.Mapper.Index(line)
	j, slot, node := c.find(set, line)
	if j >= 0 {
		return
	}
	if node == indexEmpty {
		node = c.hist.add(slot, line)
	}
	ways := c.set(set)
	c.clock++
	victim := c.pickVictim(set, ways)
	e := &ways[victim]
	if e.valid {
		c.evict(e, stream)
	}
	if c.wide {
		c.refill(set, victim, node)
	}
	e.fill(line, c.clock, node, false, true)
	p.stats.Issued++
}
