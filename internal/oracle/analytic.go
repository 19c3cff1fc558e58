package oracle

import (
	"fmt"
	"math/rand"

	"primecache/internal/cache"
	"primecache/internal/trace"
)

// verifyClosedForm checks trace.ClosedForm's answer for passes passes
// of p on a fresh simulator of spec, which also runs the guard replay,
// against a full replay of the job on the same simulator, flushed. It
// returns an error when the closed form declines the job or when any
// counter differs.
func verifyClosedForm(spec cache.Spec, p trace.Pattern, passes int) error {
	sim, err := spec.Build()
	if err != nil {
		return fmt.Errorf("oracle: building %s: %v", spec, err)
	}
	want, _, err := trace.ClosedForm(sim, spec, p, passes)
	if err != nil {
		return fmt.Errorf("oracle: %s × %d on %s: %v", p, passes, spec, err)
	}
	sim.Flush()
	got, err := trace.ReplayPattern(sim, p, passes)
	if err != nil {
		return fmt.Errorf("oracle: replaying %s: %v", p, err)
	}
	if got != want {
		return fmt.Errorf("oracle: closed form of %s × %d on %s differs from replay:\n  replay      %v\n  closed form %v",
			p, passes, spec, got, want)
	}
	return nil
}

// stridedAnalyticProperty cross-checks the closed-form strided-sweep
// statistics against trace-driven replay over randomized organisations
// and the stride classes the paper cares about: unit, power-of-two
// (the pathological direct-mapped case), multiples of C and near-C
// (degenerate one-set orbits), and arbitrary positive/negative strides.
// About a third of the rounds with a stride above 1 sweep it as a
// diagonal with ld = stride−1, so the diagonal pattern is covered
// through its own name.
func stridedAnalyticProperty() Property {
	return Property{
		Name:      "strided-analytic-equals-replay",
		Statement: "closed-form statistics of strided and diagonal sweeps equal trace-driven replay for prime- and direct-mapped caches across stride classes and pass counts",
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
			p := trace.Pattern{Name: "strided", Start: start, Stride: s, N: n, Stream: 1 + rng.Intn(2)}
			if rng.Intn(3) == 0 && s > 1 {
				p.Name, p.LD = "diagonal", int(s-1)
			}
			return verifyClosedForm(spec, p, passes)
		},
	}
}
