package cache

import "fmt"

// VictimCache is a direct-mapped cache backed by a small fully-associative
// victim buffer (Jouppi 1990) — the third contemporary fix for conflict
// misses alongside skewing and prime mapping. Evicted lines park in the
// buffer; a main-cache miss that hits the buffer swaps the two lines at a
// (modelled) reduced penalty. It rescues ping-pong conflicts among a
// handful of lines but cannot help strided sweeps whose conflict working
// set exceeds the buffer — the vector case the paper targets.
type VictimCache struct {
	main   *Cache
	buf    []way
	clock  uint64
	hits   uint64 // victim-buffer hits (swaps)
	misses uint64 // true misses (both levels)

	scratch []Result // AccessBatch main-array results, reused across batches
}

// NewVictim returns a direct-mapped cache of lines lines with a
// fully-associative LRU victim buffer of bufLines entries.
func NewVictim(lines, bufLines int) (*VictimCache, error) {
	main, err := NewDirect(lines)
	if err != nil {
		return nil, err
	}
	if err := checkVictimBuffer(bufLines); err != nil {
		return nil, err
	}
	return &VictimCache{main: main, buf: make([]way, bufLines)}, nil
}

// checkVictimBuffer checks NewVictim's buffer size.
func checkVictimBuffer(bufLines int) error {
	if bufLines < 1 {
		return fmt.Errorf("cache: victim buffer needs at least 1 line, got %d", bufLines)
	}
	return nil
}

// Main returns the backing direct-mapped cache (its Stats count
// victim-buffer hits as misses of the main array; use VictimStats for the
// combined view).
func (v *VictimCache) Main() *Cache { return v.main }

// VictimStats reports the buffer's behaviour.
type VictimStats struct {
	// SwapHits counts main-cache misses served by the victim buffer.
	SwapHits uint64
	// TrueMisses counts misses of both levels.
	TrueMisses uint64
}

// VictimStats returns the buffer counters.
func (v *VictimCache) VictimStats() VictimStats {
	return VictimStats{SwapHits: v.hits, TrueMisses: v.misses}
}

// Stats returns the main array's counters so a VictimCache satisfies the
// Sim interface. Swap hits are counted as main-array misses here (the
// array did miss); use VictimStats and CombinedMissRatio for the
// two-level view, which is how Access reports its per-reference Result.
func (v *VictimCache) Stats() Stats { return v.main.Stats() }

// CombinedMissRatio returns true misses over all accesses.
func (v *VictimCache) CombinedMissRatio() float64 {
	acc := v.main.Stats().Accesses
	if acc == 0 {
		return 0
	}
	return float64(v.misses) / float64(acc)
}

// Access performs one reference, main array first, then the buffer, as
// a batch of one.
func (v *VictimCache) Access(a Access) Result {
	accs, out := [1]Access{a}, [1]Result{}
	v.AccessBatch(accs[:], out[:])
	return out[0]
}

// AccessBatch implements BatchSim. The main array runs its own batch
// fast path first; the victim-buffer bookkeeping then replays the
// per-access outcomes in order. The buffer never influences the main
// array's state, so splitting the two phases is observably identical
// to interleaving them per access.
func (v *VictimCache) AccessBatch(accs []Access, out []Result) {
	if len(accs) == 0 {
		return
	}
	if cap(v.scratch) < len(accs) {
		v.scratch = make([]Result, len(accs))
	}
	res := v.scratch[:len(accs)]
	v.main.AccessBatch(accs, res)
	for i := range accs {
		v.clock++
		r := res[i]
		if !r.Hit {
			// The main array evicted r.EvictedLine (if any) and installed
			// the new line: park the evicted line in the buffer. If the
			// buffer held the requested line, the miss is a swap hit and
			// the line leaves the buffer (it now lives in the main array).
			if r.Evicted {
				v.insert(r.EvictedLine)
			}
			if v.take(v.main.LineAddr(accs[i].Addr)) {
				v.hits++
				r.Hit, r.Kind = true, MissNone // report the combined outcome
			} else {
				v.misses++
			}
		}
		if out != nil {
			out[i] = r
		}
	}
}

// RepeatPass implements BatchSim: pass is the main array's delta, as
// Stats reports it. A pass the main array ran without evicting is
// rerun as all main-array hits, which never reach the buffer, so only
// the buffer's clock moves.
func (v *VictimCache) RepeatPass(pass Stats, times uint64) bool {
	if !v.main.RepeatPass(pass, times) {
		return false
	}
	v.clock += pass.Accesses * times
	return true
}

// take removes line from the buffer and reports whether it was there.
func (v *VictimCache) take(line uint64) bool {
	for i := range v.buf {
		if v.buf[i].valid && v.buf[i].line == line {
			v.buf[i].valid = false
			return true
		}
	}
	return false
}

func (v *VictimCache) insert(line uint64) {
	victim := 0
	for i := range v.buf {
		if !v.buf[i].valid {
			victim = i
			break
		}
		if v.buf[i].stamp < v.buf[victim].stamp {
			victim = i
		}
	}
	v.buf[victim] = way{valid: true, line: line, stamp: v.clock}
}

// Describe returns a short human-readable description.
func (v *VictimCache) Describe() string { return describeVictim(v.main.Lines(), len(v.buf)) }

// describeVictim is VictimCache.Describe's format, shared with
// Spec.Describe.
func describeVictim(lines, bufLines int) string {
	return fmt.Sprintf("direct %d lines + %d-entry victim buffer", lines, bufLines)
}

// Flush invalidates both levels and clears statistics.
func (v *VictimCache) Flush() {
	v.main.Flush()
	for i := range v.buf {
		v.buf[i] = way{}
	}
	v.clock = 0
	v.hits = 0
	v.misses = 0
}
