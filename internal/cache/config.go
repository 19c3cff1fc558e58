package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// Policy selects the replacement policy of a set-associative cache. It is
// irrelevant for direct-mapped caches (one way per set). The paper (§2.1)
// notes that serial vector access works against LRU; having all three lets
// the benches quantify that.
type Policy int

const (
	// LRU evicts the least-recently-used way.
	LRU Policy = iota
	// FIFO evicts the oldest-filled way.
	FIFO
	// Random evicts a uniformly random way (deterministically seeded).
	Random
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config describes a cache organisation.
type Config struct {
	// Mapper distributes line addresses over sets.
	Mapper Mapper
	// Ways is the associativity; 1 for direct- or prime-mapped caches.
	Ways int
	// LineBytes is the line size in bytes; must be a power of two. The
	// paper fixes it at 8 (one double-precision word), the default when 0.
	LineBytes int
	// Policy is the replacement policy for Ways > 1.
	Policy Policy
	// Seed seeds the Random policy; ignored otherwise.
	Seed int64
	// WriteBack selects write-back with dirty bits: stores mark the line
	// dirty and memory traffic happens on eviction (Stats.Writebacks).
	// The default is write-through, where every store reaches memory
	// (the paper's write-buffer assumption makes either free of stalls;
	// the policies differ in bus traffic, which the stats expose).
	WriteBack bool
	// DisableClassify turns off the three-C classification history and
	// its shadow directory, for pure hit-ratio sweeps. On the kernels
	// benchmark's five patterns through a prime-mapped cache that saves
	// about a third of the cost per reference (23 → 15 ns); where most
	// references are to lines never seen before, each of which adds a
	// history node, it saves more: BenchmarkCacheAccessNoClassify's
	// sweep of new lines takes 34 ns per reference, against 193 with
	// the history (BenchmarkPrimeCacheAccess).
	DisableClassify bool
}

// DefaultLineBytes is the paper's fixed line size: one 8-byte double word.
const DefaultLineBytes = 8

func (c Config) validate() error {
	if c.Mapper == nil {
		return fmt.Errorf("cache: Config.Mapper is nil")
	}
	return checkShape(c.Mapper.Sets(), c.Ways, c.LineBytes, c.Policy)
}

// checkShape is Config.validate on a mapper's set count rather than the
// mapper, so Spec.Validate can run New's checks without converting a
// mapper to the Mapper interface, which allocates.
func checkShape(sets, ways, lineBytes int, policy Policy) error {
	if sets <= 0 {
		return fmt.Errorf("cache: mapper reports %d sets", sets)
	}
	if ways <= 0 {
		return fmt.Errorf("cache: Ways must be positive, got %d", ways)
	}
	if ways > math.MaxInt/sets {
		return fmt.Errorf("cache: %d sets × %d ways overflows the frame count", sets, ways)
	}
	lb := lineBytes
	if lb == 0 {
		lb = DefaultLineBytes
	}
	if lb < 1 || bits.OnesCount(uint(lb)) != 1 {
		return fmt.Errorf("cache: LineBytes must be a power of two, got %d", lineBytes)
	}
	switch policy {
	case LRU, FIFO, Random:
	default:
		return fmt.Errorf("cache: unknown policy %d", int(policy))
	}
	return nil
}
