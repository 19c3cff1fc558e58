package cache

// shadow is a fully-associative LRU directory of fixed capacity used to
// split non-compulsory misses into capacity (would miss fully-associatively
// too) and conflict (artifact of the mapping). It stores only line
// addresses, no data.
//
// The directory is touched on every access of a classifying cache, so it
// sits on the hot path of every organisation's AccessBatch loop (and so
// of Access, a batch of one). It therefore avoids the runtime map and
// per-entry heap nodes: lines live in an open-addressed linear-probe
// table of int32 indices into a flat node pool, and the recency list is
// intrusive (int32 prev/next) inside the pool. One touch is one hash
// probe plus a few int32 writes, with zero steady-state allocation.
//
// reset empties the pool and the table in place, keeping both at the
// size the largest working set since construction needed, so a cache
// reused across Flush does not regrow or rehash them job after job.
type shadow struct {
	capacity int

	nodes []shadowNode // node pool; grows on demand up to capacity+1
	free  int32        // most recently evicted pool slot, -1 = none
	head  int32        // most recently used, -1 = empty
	tail  int32        // least recently used
	size  int          // live entries

	table []int32 // slot → pool index, shadowEmpty, or shadowTombstone
	mask  uint64  // len(table)-1; table length is a power of two
	used  int     // table slots holding a live entry or a tombstone
}

const (
	shadowEmpty     = -1
	shadowTombstone = -2
)

type shadowNode struct {
	line       uint64
	prev, next int32 // intrusive recency list, -1 = none
	slot       int32 // this node's table slot, for O(1) delete
}

func newShadow(capacity int) *shadow {
	s := &shadow{capacity: capacity, free: -1, head: -1, tail: -1}
	s.initTable(64)
	return s
}

func (s *shadow) initTable(n int) {
	s.table = make([]int32, n)
	s.clearTable()
}

// clearTable marks every table slot empty.
func (s *shadow) clearTable() {
	for i := range s.table {
		s.table[i] = shadowEmpty
	}
	s.mask = uint64(len(s.table) - 1)
	s.used = 0
}

// shadowHash is Fibonacci hashing: line addresses are often arithmetic
// progressions (strided sweeps), which the golden-ratio multiply spreads
// across the table instead of clustering into one probe run.
func shadowHash(line uint64) uint64 { return line * 0x9e3779b97f4a7c15 }

// touch looks up line, promoting it to most-recently-used and inserting it
// (evicting the LRU entry if full) when absent. It returns whether the line
// was present before the call — i.e. whether a fully-associative LRU cache
// of this capacity would have hit.
func (s *shadow) touch(line uint64) bool {
	i := shadowHash(line) >> 32 & s.mask
	reuse := int64(-1) // first tombstone seen, reusable if line is absent
	for {
		v := s.table[i]
		if v == shadowEmpty {
			break
		}
		if v == shadowTombstone {
			if reuse < 0 {
				reuse = int64(i)
			}
		} else if s.nodes[v].line == line {
			// Splice v to the front in place rather than via unlink
			// and pushFront: v != head implies v has a predecessor,
			// and v's own links are overwritten, not cleared — the hit
			// path is the hottest code in a classifying simulation.
			if s.head != v {
				nd := &s.nodes[v]
				prev, next := nd.prev, nd.next
				s.nodes[prev].next = next
				if next >= 0 {
					s.nodes[next].prev = prev
				} else {
					s.tail = prev
				}
				nd.prev = -1
				nd.next = s.head
				s.nodes[s.head].prev = v
				s.head = v
			}
			return true
		}
		i = (i + 1) & s.mask
	}

	slot := i
	if reuse >= 0 {
		slot = uint64(reuse)
	} else {
		s.used++
	}
	n := s.alloc(line)
	s.nodes[n].slot = int32(slot)
	s.table[slot] = n
	s.pushFront(n)
	s.size++
	if s.size > s.capacity {
		t := s.tail
		s.unlink(t)
		s.table[s.nodes[t].slot] = shadowTombstone
		s.free = t
		s.size--
	}
	if s.used*4 >= len(s.table)*3 {
		s.rehash()
	}
	return false
}

// rehash rebuilds the table — doubled while the live load exceeds ½ —
// discarding accumulated tombstones. A full directory under a stream of
// misses only accumulates tombstones, so the table is rebuilt in place
// when its size stays.
func (s *shadow) rehash() {
	n := len(s.table)
	for s.size*2 >= n {
		n *= 2
	}
	if n == len(s.table) {
		s.clearTable()
	} else {
		s.initTable(n)
	}
	for v := s.head; v >= 0; v = s.nodes[v].next {
		i := shadowHash(s.nodes[v].line) >> 32 & s.mask
		for s.table[i] != shadowEmpty {
			i = (i + 1) & s.mask
		}
		s.table[i] = v
		s.nodes[v].slot = int32(i)
		s.used++
	}
}

// alloc returns a pool slot holding line. Evictions always accompany an
// insertion, so at most one freed slot exists at a time.
func (s *shadow) alloc(line uint64) int32 {
	if n := s.free; n >= 0 {
		s.free = -1
		s.nodes[n] = shadowNode{line: line, prev: -1, next: -1}
		return n
	}
	if len(s.nodes) == cap(s.nodes) {
		// Double, up to the capacity+1 nodes the pool can ever hold:
		// append grows a large slice by about a quarter at a time, so
		// a big cache's pool would be copied some five times over.
		grown := make([]shadowNode, len(s.nodes), min(max(2*cap(s.nodes), 64), s.capacity+1))
		copy(grown, s.nodes)
		s.nodes = grown
	}
	s.nodes = append(s.nodes, shadowNode{line: line, prev: -1, next: -1})
	return int32(len(s.nodes) - 1)
}

func (s *shadow) pushFront(n int32) {
	nd := &s.nodes[n]
	nd.prev = -1
	nd.next = s.head
	if s.head >= 0 {
		s.nodes[s.head].prev = n
	}
	s.head = n
	if s.tail < 0 {
		s.tail = n
	}
}

func (s *shadow) unlink(n int32) {
	nd := &s.nodes[n]
	if nd.prev >= 0 {
		s.nodes[nd.prev].next = nd.next
	} else {
		s.head = nd.next
	}
	if nd.next >= 0 {
		s.nodes[nd.next].prev = nd.prev
	} else {
		s.tail = nd.prev
	}
	nd.prev, nd.next = -1, -1
}

func (s *shadow) len() int { return s.size }

// reset forgets every entry; the pool and the table keep their capacity.
func (s *shadow) reset() {
	s.nodes = s.nodes[:0]
	s.free, s.head, s.tail = -1, -1, -1
	s.size = 0
	s.clearTable()
}
