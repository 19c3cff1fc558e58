package cache

// history is the reference history a classifying cache keeps to split
// its misses under the three-C model and to attribute conflict misses
// to the stream that caused them. Cache and SkewedCache share it, so the
// classification rule is written once.
//
// It keeps one node per line seen since the last reset, numbered in the
// order the lines were first seen. A node holds whether a demand access
// has referenced its line (compulsory tracking), which stream last
// evicted it, and its links in the shadow: a fully-associative LRU
// directory of the cache's capacity, whose answer splits the misses
// that are not compulsory into capacity and conflict. The shadow is a
// recency list threaded through the nodes in it, so entering and
// leaving it moves links and a flag, never an entry of a table.
//
// index, from line to node, is the only line table of a Cache, and it
// never deletes an entry. A frame of the cache keeps its line's node,
// so a hit and an eviction reach the node with no probe; only a miss
// probes, once, finding or adding the missing line's node. A node names
// the frame that last held its line (Cache.place), so a Cache can tell
// a refill into that frame from one that moves the line. A wide Cache
// (wideWays) finds its lines through the same probe: a node whose line
// it still holds is marked held, and names the frame.
//
// reset empties the nodes and the index in place, keeping their
// capacity, so a cache that is flushed and reused regrows nothing: once
// it has classified a working set, later jobs no larger allocate
// nothing.
type history struct {
	lines []uint64    // by node: its line, for the index
	links []link      // by node: its place in shadow, while in it
	facts []nodeFacts // by node
	index lineIndex   // line → node

	shadow   recency // of the nodes in the shadow: most recently used at the head
	inShadow int     // nodes in shadow
	capacity int     // the shadow's capacity: the cache's lines

	// wide holds the evictors that do not fit nodeFacts' int32, by
	// node; nil until one occurs.
	wide map[int32]int
}

// nodeFacts is what a node knows of its line besides the line itself.
// The seen flag and the evictor are separate facts: a prefetch fill
// (PrefetchCache.install) can evict a line that no demand reference has
// touched, and that line's first demand touch is still compulsory.
type nodeFacts struct {
	evictor int32 // stream that last evicted the line; StreamNone = none known
	frame   int32 // the Cache frame that last held the line; -1 = none
	flags   uint8
}

const (
	nodeSeen     = 1 << iota // referenced by a demand access
	nodeInShadow             // linked into the shadow
	nodeWide                 // evictor is in history.wide
	nodeHeld                 // a wide Cache holds the line, in frame
)

// newHistory returns an empty history for a cache of lines lines.
func newHistory(lines int) *history {
	h := &history{capacity: lines}
	h.index.init(64)
	h.shadow.reset()
	return h
}

// reset forgets every reference and eviction. The node arrays and the
// index keep their capacity.
func (h *history) reset() {
	h.lines = h.lines[:0]
	h.links = h.links[:0]
	h.facts = h.facts[:0]
	h.index.reset()
	h.shadow.reset()
	h.inShadow = 0
	clear(h.wide)
}

// node returns line's node, adding one when the line is new: the one
// probe of the index a miss pays.
func (h *history) node(line uint64) int32 {
	i, n := h.index.find(line, h.lines)
	if n == indexEmpty {
		n = h.add(i, line)
	}
	return n
}

// add gives line, which index.find reported absent at slot i, a node
// and returns it. The node arrays may move.
func (h *history) add(i, line uint64) int32 {
	if len(h.lines) == cap(h.lines) {
		h.growNodes()
	}
	n := int32(len(h.lines))
	h.lines = append(h.lines, line)
	h.links = append(h.links, link{})
	h.facts = append(h.facts, nodeFacts{evictor: StreamNone, frame: -1})
	// Entries are never deleted, so the probe runs are those of a table
	// filled once; a load of up to ½ keeps them short.
	if 2*len(h.lines) > len(h.index.slots) {
		h.index.grow(h.lines)
		h.index.insert(line, n)
	} else {
		h.index.put(i, n)
	}
	return n
}

// growNodes doubles the node arrays' capacity: append grows a large
// slice by about a quarter at a time, so a big working set's arrays
// would be copied some five times over.
func (h *history) growNodes() {
	n := max(2*cap(h.lines), 64)
	h.lines = append(make([]uint64, 0, n), h.lines...)
	h.links = append(make([]link, 0, n), h.links...)
	h.facts = append(make([]nodeFacts, 0, n), h.facts...)
}

// touch records a demand reference to node n's line and returns the
// kind of miss it is if the cache misses: compulsory on the line's
// first reference, conflict when a fully-associative LRU cache of equal
// capacity would hit, that is when the line is in the shadow, capacity
// otherwise. A line enters the shadow at its head; a full shadow first
// drops its tail, the least recently used line.
func (h *history) touch(n int32) MissKind {
	f := &h.facts[n]
	if f.flags&nodeInShadow != 0 {
		h.shadow.use(h.links, n)
		return MissConflict
	}
	kind := MissCapacity
	if f.flags&nodeSeen == 0 {
		kind = MissCompulsory
	}
	f.flags |= nodeSeen | nodeInShadow
	if h.inShadow == h.capacity {
		t := h.shadow.tail
		h.shadow.unlink(h.links, t)
		h.facts[t].flags &^= nodeInShadow
	} else {
		h.inShadow++
	}
	h.shadow.pushFront(h.links, n)
	return kind
}

// classify records a miss of kind (as touch returned it) by stream on
// node n's line in res and st. A conflict miss is attributed to self- or
// cross-interference when both the missing stream and the stream that
// last evicted the line are known.
func (h *history) classify(res *Result, st *Stats, n int32, stream int, kind MissKind) {
	res.Kind = kind
	switch kind {
	case MissCompulsory:
		st.Compulsory++
	case MissCapacity:
		st.Capacity++
	case MissConflict:
		st.Conflict++
		if stream == StreamNone {
			return
		}
		if evictor := h.evictor(n); evictor != StreamNone {
			if evictor == stream {
				res.SelfInterference = true
				st.SelfInterference++
			} else {
				res.CrossInterference = true
				st.CrossInterference++
			}
		}
	}
}

// evicted records that a reference of stream displaced node n's line.
func (h *history) evicted(n int32, stream int) {
	f := &h.facts[n]
	if s := int32(stream); int(s) == stream {
		f.evictor = s
		f.flags &^= nodeWide
		return
	}
	if h.wide == nil {
		h.wide = make(map[int32]int)
	}
	h.wide[n] = stream
	f.flags |= nodeWide
}

// evictor returns the stream that last evicted node n's line,
// StreamNone when none did.
func (h *history) evictor(n int32) int {
	if f := h.facts[n]; f.flags&nodeWide == 0 {
		return int(f.evictor)
	}
	return h.wide[n]
}
