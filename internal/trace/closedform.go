package trace

import (
	"errors"
	"fmt"

	"primecache/internal/cache"
)

// errNoClosedForm is ClosedForm's answer for a job outside the model.
var errNoClosedForm = errors.New("trace: no closed form for this pattern on this cache")

// ClosedForm returns the statistics passes passes of p leave on an
// empty cache of spec, computed in O(passes) arithmetic instead of
// replayed, and guard, the most references its check replays. It is
// the one entry point to the closed form: it covers what
// cache.StridedSweepStats covers, a pattern that is one strided vector
// (see Vector) on a prime- or direct-mapped cache, and returns an error
// for anything else.
//
// With sim non-nil, which must be an empty simulator of spec (fresh or
// just flushed), the answer is first checked against a replay on sim of
// the same sweep shrunk to at most 2·sets+1 references and 2 passes,
// which covers both the n ≤ sets and the n > sets regimes; any
// difference is an error, so a model bug costs a replay, never a wrong
// answer. A nil sim skips the check: a caller can weigh guard against
// the job before paying for it.
func ClosedForm(sim cache.Sim, spec cache.Spec, p Pattern, passes int) (stats cache.Stats, guard int, err error) {
	p = p.Normalize()
	start, stride, n, ok := p.Vector()
	if !ok {
		return cache.Stats{}, 0, errNoClosedForm
	}
	if stats, ok = cache.StridedSweepStats(spec, start, stride, n, passes, p.Stream); !ok {
		return cache.Stats{}, 0, errNoClosedForm
	}
	// StridedSweepStats covers only one-way caches, whose sets are
	// their frames.
	sets := spec.Frames()
	guard = 2 * (2*sets + 1)
	if sim == nil {
		return stats, guard, nil
	}
	g, gPasses := p, min(passes, 2)
	g.N = min(n, 2*sets+1)
	want, _ := cache.StridedSweepStats(spec, start, stride, g.N, gPasses, p.Stream)
	got, err := ReplayPattern(sim, g, gPasses)
	if err != nil {
		return cache.Stats{}, guard, err
	}
	if got != want {
		return cache.Stats{}, guard, fmt.Errorf("trace: closed form of %s × %d on %s differs from replay:\n  replay      %v\n  closed form %v",
			g, gPasses, spec, got, want)
	}
	return stats, guard, nil
}
