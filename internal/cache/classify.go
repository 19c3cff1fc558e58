package cache

// history is the reference history a classifying cache keeps to split
// its misses under the three-C model and to attribute conflict misses
// to the stream that caused them. Cache and SkewedCache share it, so the
// classification rule is written once.
//
// Every table history owns is cleared in place by reset, keeping its
// capacity, so a cache that is flushed and reused regrows nothing: once
// it has classified a working set, later jobs no larger allocate
// nothing.
type history struct {
	shadow *shadow // fully-assoc LRU of equal capacity (3C split)

	// lines is an open-addressed linear-probe table, placed by lineSlot
	// like a lineIndex, holding per line whether it was ever referenced
	// (compulsory tracking) and which stream evicted it most recently.
	// Entries are never deleted, so there are no tombstones. It is nil
	// until the first entry, as a Go map starts empty, so a cache built
	// only to be described costs nothing here.
	lines []lineEntry
	mask  uint64 // len(lines)-1; the length is a power of two
	used  int    // occupied entries

	// wide holds the evictors that do not fit an entry's int32, by
	// line; nil until one occurs.
	wide map[uint64]int
}

// lineEntry is one line's history, 16 bytes. The seen flag and the
// evictor are separate facts: a prefetch fill (Cache.installLine) can
// evict a line that no demand reference has touched, and that line's
// first demand touch is still compulsory.
type lineEntry struct {
	line    uint64
	evictor int32 // stream that last evicted the line; StreamNone = none known
	flags   uint8
}

const (
	lineUsed = 1 << iota // slot occupied
	lineSeen             // referenced by a demand access
	lineWide             // evictor is in history.wide
)

// lineTableMin is the line table's first allocation, in entries.
const lineTableMin = 64

// newHistory returns an empty history for a cache of lines lines.
func newHistory(lines int) *history {
	return &history{shadow: newShadow(lines)}
}

// reset forgets every reference and eviction. The tables keep their
// capacity.
func (h *history) reset() {
	h.shadow.reset()
	clear(h.lines)
	h.used = 0
	clear(h.wide)
}

// find returns line's entry, or nil when the line has none.
func (h *history) find(line uint64) *lineEntry {
	if h.lines == nil {
		return nil
	}
	for i := lineSlot(line, h.mask); ; i = (i + 1) & h.mask {
		e := &h.lines[i]
		if e.flags == 0 {
			return nil
		}
		if e.line == line {
			return e
		}
	}
}

// entry returns line's entry, inserting an empty one when absent.
func (h *history) entry(line uint64) *lineEntry {
	if (h.used+1)*4 > len(h.lines)*3 {
		h.grow()
	}
	for i := lineSlot(line, h.mask); ; i = (i + 1) & h.mask {
		e := &h.lines[i]
		if e.flags == 0 {
			*e = lineEntry{line: line, evictor: StreamNone, flags: lineUsed}
			h.used++
			return e
		}
		if e.line == line {
			return e
		}
	}
}

// grow doubles the line table (or makes its first allocation) and
// reinserts every entry.
func (h *history) grow() {
	old := h.lines
	n := 2 * len(old)
	if n < lineTableMin {
		n = lineTableMin
	}
	h.lines = make([]lineEntry, n)
	h.mask = uint64(n - 1)
	for _, e := range old {
		if e.flags == 0 {
			continue
		}
		i := lineSlot(e.line, h.mask)
		for h.lines[i].flags != 0 {
			i = (i + 1) & h.mask
		}
		h.lines[i] = e
	}
}

// observe records a demand reference to line and returns the kind of
// miss it is if the cache misses: compulsory on the line's first
// reference, conflict when a fully-associative LRU cache of equal
// capacity would hit, capacity otherwise. A shadow hit implies the line
// was referenced before, so the line table is consulted only on a
// shadow miss.
func (h *history) observe(line uint64) MissKind {
	if h.shadow.touch(line) {
		return MissConflict
	}
	e := h.entry(line)
	if e.flags&lineSeen != 0 {
		return MissCapacity
	}
	e.flags |= lineSeen
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
		if stream == StreamNone {
			return
		}
		if evictor := h.evictor(line); evictor != StreamNone {
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
func (h *history) evicted(line uint64, stream int) {
	e := h.entry(line)
	if s := int32(stream); int(s) == stream {
		e.evictor = s
		e.flags &^= lineWide
		return
	}
	if h.wide == nil {
		h.wide = make(map[uint64]int)
	}
	h.wide[line] = stream
	e.flags |= lineWide
}

// evictor returns the stream that last evicted line, StreamNone when
// none did.
func (h *history) evictor(line uint64) int {
	e := h.find(line)
	switch {
	case e == nil:
		return StreamNone
	case e.flags&lineWide != 0:
		return h.wide[line]
	default:
		return int(e.evictor)
	}
}
