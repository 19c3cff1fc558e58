package trace

import (
	"context"
	"sync"

	"primecache/internal/cache"
)

// A Cursor streams the references of one Pattern pass without ever
// materialising the Trace: it walks the pattern's groups of strided
// runs, holding only the current run's parameters and a running
// address, so it makes the references Pattern.Build returns, in order,
// with Strided's address arithmetic (signed wrap-around included), in
// O(1) memory for any pattern size.
type Cursor struct {
	groups [2]runGroup
	group  int // current group index
	run    int // runs of the current group already started

	pos  int   // elements already emitted from the current run
	n    int   // current run length
	cur  int64 // current word address (Strided's running accumulator)
	strd int64 // current run's word stride
	strm int   // current run's stream id
}

// NewCursor validates p and returns a cursor positioned at the first
// reference of one pass.
func NewCursor(p Pattern) (*Cursor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Cursor{groups: p.Normalize().runs()}
	c.Reset()
	return c, nil
}

// Reset rewinds the cursor to the start of the pass.
func (c *Cursor) Reset() {
	c.group, c.run = 0, 0
	c.nextRun()
}

// nextRun advances to the next non-empty run, loading its parameters;
// it leaves n == 0 when the pass is exhausted. It runs once per run,
// and is kept out of Next: inlined there, it slowed the per-reference
// loop by about a tenth on the kernels patterns (go1.24, amd64).
//
//go:noinline
func (c *Cursor) nextRun() {
	for ; c.group < len(c.groups); c.group, c.run = c.group+1, 0 {
		g := &c.groups[c.group]
		if g.n <= 0 || c.run >= g.count {
			continue
		}
		c.pos, c.n, c.strd, c.strm = 0, g.n, g.stride, g.stream
		c.cur = int64(g.base + uint64(c.run)*g.step)
		c.run++
		return
	}
	c.n = 0
}

// Next fills buf with the next references of the pass, as cache
// accesses, and returns how many it wrote; 0 means the pass is
// exhausted. All generated references are loads.
func (c *Cursor) Next(buf []cache.Access) int {
	filled := 0
	for filled < len(buf) && c.n > 0 {
		k := c.n - c.pos
		if k > len(buf)-filled {
			k = len(buf) - filled
		}
		cur, strd, strm := c.cur, c.strd, c.strm
		for i := 0; i < k; i++ {
			buf[filled+i] = cache.Access{Addr: uint64(cur) * WordBytes, Stream: strm}
			cur += strd
		}
		c.cur = cur
		c.pos += k
		filled += k
		if c.pos == c.n {
			c.nextRun()
		}
	}
	return filled
}

// replayChunk is the fixed batch size Replay and ReplayPattern stream
// through cache.AccessBatch: large enough to amortise the batch setup,
// small enough to stay in the L1 cache.
const replayChunk = 256

// replayBufs recycles the replay chunk buffers. A buffer handed to
// cache.AccessBatch escapes through the Sim interface, so a local array
// would be a fresh heap allocation on every replay.
var replayBufs = sync.Pool{New: func() any { return new([replayChunk]cache.Access) }}

// ReplayPattern streams passes passes of p through any cache
// organisation in fixed-size chunks via the batch API and returns the
// stats delta, never materialising the trace: peak memory is O(1) in
// the pattern size. It is Replay for patterns too large to Build.
//
// After each pass but the last, a cache.BatchSim is asked through
// RepeatPass to account for the passes left without running them, and
// the replay stops once it does. It accepts once a pass evicts nothing,
// since every later pass then hits on every reference, and an LRU or
// one-way cache also accepts a pass that evicted, from the second pass
// on, once it is in steady state (cache.BatchSim says which
// organisations accept when). The Stats, and the simulator's answers to
// later references, are those of running every pass. A simulator that
// is not a BatchSim, such as the oracle's reference models, runs every
// pass.
func ReplayPattern(c cache.Sim, p Pattern, passes int) (cache.Stats, error) {
	stats, _, err := ReplayPatternContext(context.Background(), c, p, passes, 0)
	return stats, err
}

// ReplayPatternContext is ReplayPattern with cooperative cancellation:
// it checks ctx.Err() roughly every checkEvery references (<= 0 selects
// one check per pass), so a replay whose requester has gone away stops
// within one checkpoint interval instead of finishing a multi-gigaref
// job. It returns the stats delta accumulated so far, the number of
// references completed, and ctx's error when it stopped early. Only
// Err() is consulted — a caller may supply any Context whose Err()
// flips, without a Done channel ever being selected on, so checkpoints
// stay cheap. Passes fold as ReplayPattern says: after pass k of p, a
// cache.BatchSim is asked to repeat it for the passes left, with runs
// k, since every pass presents the same references.
func ReplayPatternContext(ctx context.Context, c cache.Sim, p Pattern, passes int, checkEvery int) (cache.Stats, uint64, error) {
	cur, err := NewCursor(p)
	if err != nil {
		return cache.Stats{}, 0, err
	}
	before := c.Stats()
	bs, _ := c.(cache.BatchSim)
	var refsDone uint64
	budget := checkEvery
	buf := replayBufs.Get().(*[replayChunk]cache.Access)
	defer replayBufs.Put(buf)
	for pass := 0; pass < passes; pass++ {
		passStats, passRefs := c.Stats(), refsDone
		cur.Reset()
		for {
			n := cur.Next(buf[:])
			if n == 0 {
				break
			}
			cache.AccessBatch(c, buf[:n], nil)
			refsDone += uint64(n)
			if checkEvery <= 0 {
				continue
			}
			if budget -= n; budget > 0 {
				continue
			}
			budget = checkEvery
			if err := ctx.Err(); err != nil {
				return c.Stats().Sub(before), refsDone, err
			}
		}
		// A checkpoint between passes regardless of checkEvery, so even
		// a tiny-pattern × many-passes job stays cancellable.
		if err := ctx.Err(); err != nil {
			return c.Stats().Sub(before), refsDone, err
		}
		// The passes left fold into this one, the pass+1'th run of the
		// references, when the simulator accepts them.
		if rest := uint64(passes - pass - 1); rest > 0 && bs != nil &&
			bs.RepeatPass(c.Stats().Sub(passStats), rest, uint64(pass+1)) {
			refsDone += rest * (refsDone - passRefs)
			break
		}
	}
	return c.Stats().Sub(before), refsDone, nil
}
