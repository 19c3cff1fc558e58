package cache

// shadow is a fully-associative LRU directory of fixed capacity used to
// split non-compulsory misses into capacity (would miss fully-associatively
// too) and conflict (artifact of the mapping). It stores only line
// addresses, no data.
//
// The directory is touched on every access of a classifying cache, so it
// sits on the hot path of every organisation's AccessBatch loop (and so
// of Access, a batch of one). It therefore avoids the runtime map and
// per-entry heap nodes: entries are numbered nodes in two flat arrays,
// their lines and their links in an intrusive recency list, found
// through a lineIndex of node numbers. One touch is one hash probe plus
// a few int32 writes, with zero steady-state allocation.
//
// reset empties the arrays and the index in place, keeping all three at
// the size the largest working set since construction needed, so a
// cache reused across Flush does not regrow or rehash them job after
// job.
type shadow struct {
	capacity int

	lines []uint64  // by node; one node per live entry, up to capacity
	links []link    // by node
	order recency   // of the nodes: most recently used at the head
	index lineIndex // line → node
}

func newShadow(capacity int) *shadow {
	s := &shadow{capacity: capacity}
	s.order.reset()
	s.index.init(indexSlots(0))
	return s
}

// touch looks up line, promoting it to most-recently-used and inserting it
// (evicting the LRU entry if full) when absent. It returns whether the line
// was present before the call — i.e. whether a fully-associative LRU cache
// of this capacity would have hit.
func (s *shadow) touch(line uint64) bool {
	i, n := s.index.find(line, s.lines)
	if n == indexEmpty {
		s.add(i, line)
		return false
	}
	s.order.use(s.links, n)
	return true
}

// add inserts the absent line as most recently used. i is the slot find
// returned for line. A full directory evicts its least recently used
// entry first and gives line that entry's node, so the arrays and the
// index never hold more than capacity entries.
func (s *shadow) add(i uint64, line uint64) {
	var n int32
	switch {
	case len(s.lines) == s.capacity:
		n = s.order.tail
		s.order.unlink(s.links, n)
		j, _ := s.index.find(s.lines[n], s.lines)
		s.index.remove(j, s.lines) // may move entries, so i is stale
		s.lines[n] = line
		s.index.insert(line, n)
	case (len(s.lines)+1)*4 > len(s.index.slots): // the load indexSlots allows
		n = s.alloc(line)
		s.index.grow(s.lines)
		s.index.insert(line, n)
	default:
		n = s.alloc(line)
		s.index.put(i, n)
	}
	s.order.pushFront(s.links, n)
}

// alloc appends a node holding line.
func (s *shadow) alloc(line uint64) int32 {
	if len(s.lines) == cap(s.lines) {
		// Double, up to the capacity nodes there can ever be: append
		// grows a large slice by about a quarter at a time, so a big
		// cache's arrays would be copied some five times over.
		n := min(max(2*cap(s.lines), 64), s.capacity)
		s.lines = append(make([]uint64, 0, n), s.lines...)
		s.links = append(make([]link, 0, n), s.links...)
	}
	s.lines = append(s.lines, line)
	s.links = append(s.links, link{})
	return int32(len(s.lines) - 1)
}

func (s *shadow) len() int { return len(s.lines) }

// reset forgets every entry; the arrays and the index keep their
// capacity.
func (s *shadow) reset() {
	s.lines = s.lines[:0]
	s.links = s.links[:0]
	s.order.reset()
	s.index.reset()
}
