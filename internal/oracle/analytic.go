package oracle

import (
	"fmt"
	"math/rand"

	"primecache/internal/cache"
	"primecache/internal/trace"
)

// VerifyStridedAnalytic replays passes passes of the strided sweep on
// sim, which must be an empty simulator of spec (fresh or just
// flushed), and compares its statistics against the closed form of
// cache.StridedSweepStats. The sweep streams through
// trace.ReplayPattern, so no trace is materialised. It returns an error
// when the model declines the sweep or when any counter differs; nil
// means the closed form is exact for this instance. The vcached server
// uses this as its admission guard before trusting the analytic path
// for a job, on a simulator from its shelf, and the property suite runs
// it across stride classes.
func VerifyStridedAnalytic(sim cache.Sim, spec cache.Spec, startWord uint64, strideWords int64, n, passes, stream int) error {
	if strideWords == 0 || n <= 0 || stream == 0 {
		// A trace.Pattern reads each of these zeros as its default.
		return fmt.Errorf("oracle: cannot replay a sweep of stride %d, n %d, stream %d", strideWords, n, stream)
	}
	want, ok := cache.StridedSweepStats(spec, startWord, strideWords, n, passes, stream)
	if !ok {
		return fmt.Errorf("oracle: analytic model rejected sweep spec=%s start=%d stride=%d n=%d passes=%d",
			spec, startWord, strideWords, n, passes)
	}
	p := trace.Pattern{Name: "strided", Start: startWord, Stride: strideWords, N: n, Stream: stream}
	got, err := trace.ReplayPattern(sim, p, passes)
	if err != nil {
		return fmt.Errorf("oracle: replaying %s: %v", p, err)
	}
	if got != want {
		return fmt.Errorf("oracle: analytic sweep mismatch spec=%s start=%d stride=%d n=%d passes=%d stream=%d:\n  replay   %v\n  analytic %v",
			spec, startWord, strideWords, n, passes, stream, got, want)
	}
	return nil
}

// verifyStridedAnalyticFresh is VerifyStridedAnalytic on a newly built
// simulator of spec.
func verifyStridedAnalyticFresh(spec cache.Spec, startWord uint64, strideWords int64, n, passes, stream int) error {
	sim, err := spec.Build()
	if err != nil {
		return fmt.Errorf("oracle: building %s: %v", spec, err)
	}
	return VerifyStridedAnalytic(sim, spec, startWord, strideWords, n, passes, stream)
}

// stridedAnalyticProperty cross-checks the closed-form strided-sweep
// statistics against trace-driven replay over randomized organisations
// and the stride classes the paper cares about: unit, power-of-two
// (the pathological direct-mapped case), multiples of C and near-C
// (degenerate one-set orbits), and arbitrary positive/negative strides.
func stridedAnalyticProperty() Property {
	return Property{
		Name:      "strided-analytic-equals-replay",
		Statement: "closed-form strided-sweep statistics equal trace-driven replay for prime- and direct-mapped caches across stride classes and pass counts",
		Check: func(rng *rand.Rand) error {
			var spec cache.Spec
			var C int64
			if rng.Intn(2) == 0 {
				c := []uint{3, 5, 7, 13}[rng.Intn(4)]
				spec = cache.Spec{Kind: "prime", C: c}
				C = int64(1)<<c - 1
			} else {
				L := []int{16, 64, 256, 1024}[rng.Intn(4)]
				spec = cache.Spec{Kind: "direct", Lines: L}
				C = int64(L)
			}
			var s int64
			switch rng.Intn(6) {
			case 0:
				s = 1
			case 1:
				s = int64(1) << uint(rng.Intn(14)) // power of two
			case 2:
				s = C * int64(1+rng.Intn(4)) // multiple of C: one-set orbit
			case 3:
				s = C*int64(1+rng.Intn(3)) + int64(rng.Intn(3)) - 1 // C·k ± 1
			case 4:
				s = int64(1 + rng.Intn(1<<12))
			case 5:
				s = -int64(1 + rng.Intn(1<<12))
			}
			if s == 0 {
				s = 1
			}
			maxN := int(2*C) + 3 // cover n < o, n ≤ C, and n > C regimes
			if maxN > 4096 {
				maxN = 4096 // keep the big c=13 rounds cheap
			}
			n := 1 + rng.Intn(maxN)
			passes := 1 + rng.Intn(3)
			start := uint64(rng.Intn(1 << 20))
			if s < 0 {
				// Keep the address accumulator nonnegative, as real
				// backwards sweeps over allocated arrays do.
				start += uint64(int64(n) * -s)
			}
			stream := 1 + rng.Intn(2)
			return verifyStridedAnalyticFresh(spec, start, s, n, passes, stream)
		},
	}
}
