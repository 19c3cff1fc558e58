package cache

import "fmt"

// MissKind classifies a miss under the three-C model.
type MissKind int

const (
	// MissNone marks a hit.
	MissNone MissKind = iota
	// MissCompulsory is the first-ever reference to a line.
	MissCompulsory
	// MissCapacity would also have missed in a fully-associative LRU
	// cache of the same capacity.
	MissCapacity
	// MissConflict would have hit fully-associatively; it is an artifact
	// of the mapping function — the misses the prime mapping removes.
	MissConflict
)

// String implements fmt.Stringer.
func (k MissKind) String() string {
	switch k {
	case MissNone:
		return "hit"
	case MissCompulsory:
		return "compulsory"
	case MissCapacity:
		return "capacity"
	case MissConflict:
		return "conflict"
	default:
		return fmt.Sprintf("misskind(%d)", int(k))
	}
}

// Stats accumulates access outcomes for one cache.
type Stats struct {
	Accesses uint64
	Reads    uint64
	Writes   uint64
	Hits     uint64
	Misses   uint64

	Compulsory uint64
	Capacity   uint64
	Conflict   uint64

	// SelfInterference counts conflict misses whose victim was evicted by
	// an access of the same vector stream; CrossInterference by a
	// different stream. They sum to at most Conflict (a conflict miss on
	// a line never cached before eviction tracking saw it is counted in
	// neither).
	SelfInterference  uint64
	CrossInterference uint64

	Evictions uint64

	// Writebacks counts dirty-line evictions (write-back mode);
	// MemoryWrites counts the store traffic that reached memory: every
	// store in write-through mode, writebacks in write-back mode.
	Writebacks   uint64
	MemoryWrites uint64
}

// MissRatio returns Misses/Accesses, 0 when no accesses occurred.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRatio returns Hits/Accesses, 0 when no accesses occurred.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// InterferenceRatio returns the fraction of accesses that were conflict
// misses — the paper's "interference misses".
func (s Stats) InterferenceRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Conflict) / float64(s.Accesses)
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) { s.addRuns(o, 1) }

// String implements fmt.Stringer with a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("acc=%d hit=%d miss=%d (comp=%d cap=%d conf=%d self=%d cross=%d) miss%%=%.2f",
		s.Accesses, s.Hits, s.Misses, s.Compulsory, s.Capacity, s.Conflict,
		s.SelfInterference, s.CrossInterference, 100*s.MissRatio())
}
