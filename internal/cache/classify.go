package cache

// history is the reference history a classifying cache keeps to split
// its misses under the three-C model and to attribute conflict misses
// to the stream that caused them. Cache and SkewedCache share it, so the
// classification rule is written once.
type history struct {
	seen      map[uint64]bool // lines ever referenced (compulsory tracking)
	shadow    *shadow         // fully-assoc LRU of equal capacity (3C split)
	evictedBy map[uint64]int  // line → stream that evicted it most recently
}

// newHistory returns an empty history for a cache of lines lines.
func newHistory(lines int) *history {
	return &history{
		seen:      make(map[uint64]bool),
		shadow:    newShadow(lines),
		evictedBy: make(map[uint64]int),
	}
}

// reset forgets every reference and eviction.
func (h *history) reset() {
	h.seen = make(map[uint64]bool)
	h.shadow.reset()
	h.evictedBy = make(map[uint64]int)
}

// observe records a demand reference to line and returns the kind of
// miss it is if the cache misses: compulsory on the line's first
// reference, conflict when a fully-associative LRU cache of equal
// capacity would hit, capacity otherwise. A shadow hit implies the line
// was referenced before, so the seen map is consulted only on a shadow
// miss.
func (h *history) observe(line uint64) MissKind {
	if h.shadow.touch(line) {
		return MissConflict
	}
	if h.seen[line] {
		return MissCapacity
	}
	h.seen[line] = true
	return MissCompulsory
}

// classify records a miss of kind (as observe returned it) by stream on
// line in res and st. A conflict miss is attributed to self- or
// cross-interference when both the missing stream and the stream that
// last evicted the line are known.
func (h *history) classify(res *Result, st *Stats, line uint64, stream int, kind MissKind) {
	res.Kind = kind
	switch kind {
	case MissCompulsory:
		st.Compulsory++
	case MissCapacity:
		st.Capacity++
	case MissConflict:
		st.Conflict++
		if evictor, ok := h.evictedBy[line]; ok && stream != StreamNone && evictor != StreamNone {
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

// evicted records that a reference of stream displaced line.
func (h *history) evicted(line uint64, stream int) { h.evictedBy[line] = stream }
