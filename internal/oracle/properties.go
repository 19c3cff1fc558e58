package oracle

import (
	"fmt"
	"math/rand"
	"strings"

	"primecache/internal/cache"
	"primecache/internal/membank"
	"primecache/internal/mersenne"
	"primecache/internal/trace"
)

// Property is one executable metamorphic check derived from the paper.
// Check runs a single randomized round and returns a descriptive error
// on violation; properties are pure in the generator (the same rng
// state yields the same round).
type Property struct {
	Name      string
	Statement string
	Check     func(rng *rand.Rand) error
}

// CheckAll runs every property for rounds rounds each, deriving one rng
// per property from seed, and returns all violations joined into one
// error (nil when every round of every property holds).
func CheckAll(props []Property, seed int64, rounds int) error {
	var fails []string
	for i, p := range props {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		for r := 0; r < rounds; r++ {
			if err := p.Check(rng); err != nil {
				fails = append(fails, fmt.Sprintf("%s (round %d): %v", p.Name, r, err))
				break
			}
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("oracle: %d propert%s violated:\n  %s",
			len(fails), map[bool]string{true: "y", false: "ies"}[len(fails) == 1],
			strings.Join(fails, "\n  "))
	}
	return nil
}

// gcd64 is the plain Euclid used by property stride selection.
func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// MapperProperties encodes the paper's §3 theorems about the prime
// mapping as checks against an arbitrary cache.Mapper claiming C =
// m.Sets() lines. Run against the production PrimeMapper they must all
// hold; run against a mutated mapper (an off-by-one modulus, a dropped
// carry fold) at least four of the five fail, which is how the tests
// demonstrate the suite has teeth.
func MapperProperties(m cache.Mapper) []Property {
	C := uint64(m.Sets())

	// randStride returns a stride in [1, 1<<16] that is not a multiple
	// of C — the paper's condition for conflict freedom (for prime C
	// this is exactly gcd(s, C) = 1).
	randStride := func(rng *rand.Rand) uint64 {
		for {
			s := 1 + uint64(rng.Intn(1<<16))
			if s%C != 0 && gcd64(s, C) == 1 {
				return s
			}
		}
	}
	randBase := func(rng *rand.Rand) uint64 { return uint64(rng.Intn(1 << 30)) }

	// sweepMisses builds a fresh direct-mapped cache over m and replays
	// `passes` passes of an n-element stride-s word sweep, returning the
	// per-pass stats.
	sweepMisses := func(base, s uint64, n, passes int) ([]cache.Stats, error) {
		c, err := cache.New(cache.Config{Mapper: m, Ways: 1})
		if err != nil {
			return nil, err
		}
		tr := trace.Strided(base, int64(s), n, 1)
		out := make([]cache.Stats, passes)
		for p := range out {
			out[p] = trace.Replay(c, tr)
		}
		return out, nil
	}

	return []Property{
		{
			Name:      "index-equals-mod",
			Statement: "the mapper's set index is lineAddr mod C, C = 2^c − 1 (EAC reduction ≡ architectural modulus)",
			Check: func(rng *rand.Rand) error {
				ref := MustNewRefModulusFor(C)
				for i := 0; i < 64; i++ {
					line := rng.Uint64()
					got := m.Index(line)
					want := int(ref.Reduce(line))
					if got != want {
						return fmt.Errorf("Index(%#x) = %d, want %d mod %d", line, got, want, C)
					}
				}
				return nil
			},
		},
		{
			Name:      "coprime-stride-distinct",
			Statement: "a stride not a multiple of C maps n ≤ C consecutive vector elements to n distinct lines (paper §3)",
			Check: func(rng *rand.Rand) error {
				s, base := randStride(rng), randBase(rng)
				n := int(C)
				if n > 512 {
					n = 512
				}
				seen := map[int]uint64{}
				for i := 0; i < n; i++ {
					line := base + uint64(i)*s
					idx := m.Index(line)
					if prev, ok := seen[idx]; ok {
						return fmt.Errorf("stride %d base %d: lines %d and %d collide on set %d", s, base, prev, line, idx)
					}
					seen[idx] = line
				}
				return nil
			},
		},
		{
			Name:      "coprime-stride-conflict-free",
			Statement: "repeated sweeps of a coprime-stride vector of length ≤ C incur zero misses after the first pass (paper §3, conflict-free access)",
			Check: func(rng *rand.Rand) error {
				s, base := randStride(rng), randBase(rng)
				n := int(C)
				if n > 256 {
					n = 256
				}
				passes, err := sweepMisses(base, s, n, 3)
				if err != nil {
					return err
				}
				for p := 1; p < len(passes); p++ {
					if passes[p].Misses != 0 {
						return fmt.Errorf("stride %d base %d n %d: pass %d has %d misses, want 0",
							s, base, n, p+1, passes[p].Misses)
					}
				}
				return nil
			},
		},
		{
			Name:      "full-coverage",
			Statement: "C consecutive lines fill all C sets exactly once (the §4 utilization claim: a conflict-free vector uses the whole cache)",
			Check: func(rng *rand.Rand) error {
				base := randBase(rng)
				counts := make([]int, C)
				for i := uint64(0); i < C; i++ {
					idx := m.Index(base + i)
					if idx < 0 || idx >= int(C) {
						return fmt.Errorf("Index(%d) = %d out of range [0,%d)", base+i, idx, C)
					}
					counts[idx]++
				}
				for set, n := range counts {
					if n != 1 {
						return fmt.Errorf("base %d: set %d holds %d of the %d consecutive lines, want exactly 1", base, set, n, C)
					}
				}
				return nil
			},
		},
		{
			Name:      "base-translation-invariance",
			Statement: "miss counts of a strided sweep are invariant under translating the base address (modulus mapping permutes sets)",
			Check: func(rng *rand.Rand) error {
				s := 1 + uint64(rng.Intn(1<<12)) // any stride, coprime or not
				base := randBase(rng)
				delta := uint64(rng.Intn(1 << 20))
				n := 1 + rng.Intn(256)
				a, err := sweepMisses(base, s, n, 2)
				if err != nil {
					return err
				}
				b, err := sweepMisses(base+delta, s, n, 2)
				if err != nil {
					return err
				}
				for p := range a {
					if a[p] != b[p] {
						return fmt.Errorf("stride %d n %d: pass %d stats differ under base translation %d→%d:\n  %v\n  %v",
							s, n, p+1, base, base+delta, a[p], b[p])
					}
				}
				return nil
			},
		},
	}
}

// refModCache memoizes RefModulus values by modulus so property loops do
// not rebuild big.Ints per access.
var refModCache = map[uint64]*RefModulus{}

// MustNewRefModulusFor returns the RefModulus whose value is m, which
// must be 2^c − 1 for a supported exponent c.
func MustNewRefModulusFor(m uint64) *RefModulus {
	if r, ok := refModCache[m]; ok {
		return r
	}
	for c := uint(2); c <= mersenne.MaxExponent; c++ {
		if uint64(1)<<c-1 == m {
			r := MustNewRefModulus(c)
			refModCache[m] = r
			return r
		}
	}
	panic(fmt.Sprintf("oracle: %d is not a Mersenne number 2^c-1 with 2 <= c <= %d", m, mersenne.MaxExponent))
}

// PrimeMapperProperties instantiates MapperProperties for the
// production prime mapper with exponent c.
func PrimeMapperProperties(c uint) ([]Property, error) {
	m, err := cache.NewPrimeMapper(c)
	if err != nil {
		return nil, err
	}
	props := MapperProperties(m)
	for i := range props {
		props[i].Name = fmt.Sprintf("prime-c%d/%s", c, props[i].Name)
	}
	return props, nil
}

// adderProperty cross-checks the end-around-carry arithmetic of every
// supported Mersenne prime modulus against math/big.
func adderProperty() Property {
	return Property{
		Name:      "eac-adder-equals-big-mod",
		Statement: "the end-around-carry adder computes A mod (2^c − 1): Reduce/Add/Sub/MulMod/ReduceSigned/Inverse agree with math/big for every prime exponent",
		Check: func(rng *rand.Rand) error {
			for _, c := range mersenne.PrimeExponents() {
				m := mersenne.MustNew(c)
				ref := MustNewRefModulusFor(m.Value())
				x, y := rng.Uint64(), rng.Uint64()
				if got, want := m.Reduce(x), ref.Reduce(x); got != want {
					return fmt.Errorf("c=%d Reduce(%#x) = %d, want %d", c, x, got, want)
				}
				if got, _ := m.ReduceSteps(x); got != ref.Reduce(x) {
					return fmt.Errorf("c=%d ReduceSteps(%#x) = %d, want %d", c, x, got, ref.Reduce(x))
				}
				sx := int64(x)
				if got, want := m.ReduceSigned(sx), ref.ReduceSigned(sx); got != want {
					return fmt.Errorf("c=%d ReduceSigned(%d) = %d, want %d", c, sx, got, want)
				}
				a := uint64(rng.Int63n(int64(m.Value() + 1)))
				b := uint64(rng.Int63n(int64(m.Value() + 1)))
				if got, want := m.Add(a, b), ref.Add(a, b); got != want {
					return fmt.Errorf("c=%d Add(%d,%d) = %d, want %d", c, a, b, got, want)
				}
				if got, want := m.Sub(a, b), ref.Sub(a, b); got != want {
					return fmt.Errorf("c=%d Sub(%d,%d) = %d, want %d", c, a, b, got, want)
				}
				if got, want := m.MulMod(x, y), ref.Mul(x, y); got != want {
					return fmt.Errorf("c=%d MulMod(%#x,%#x) = %d, want %d", c, x, y, got, want)
				}
				inv, ok := m.Inverse(a)
				rinv, rok := ref.Inverse(a)
				if ok != rok || (ok && inv != rinv) {
					return fmt.Errorf("c=%d Inverse(%d) = (%d,%v), want (%d,%v)", c, a, inv, ok, rinv, rok)
				}
				if ok && m.MulMod(a, inv) != 1 {
					return fmt.Errorf("c=%d a·a⁻¹ = %d, want 1", c, m.MulMod(a, inv))
				}
			}
			return nil
		},
	}
}

// directPow2Property encodes the paper's motivating observation in
// exact form: under bit-selection mapping, a power-of-two stride folds a
// sweep onto L/2^k sets, and the second-pass miss count is exactly
// predictable from the pigeonhole distribution of lines over sets.
func directPow2Property() Property {
	return Property{
		Name:      "direct-pow2-stride-misses",
		Statement: "a 2^k-stride sweep of a direct-mapped 2^l-line cache has a second-pass miss count exactly predicted by line folding (paper §1–2)",
		Check: func(rng *rand.Rand) error {
			L := []int{16, 64, 256, 1024}[rng.Intn(4)]
			maxK := 0
			for 1<<(maxK+1) <= L {
				maxK++
			}
			k := rng.Intn(maxK + 1)
			s := uint64(1) << k
			n := 1 + rng.Intn(2*L)
			base := uint64(rng.Intn(1 << 20))

			c, err := cache.NewDirect(L)
			if err != nil {
				return err
			}
			tr := trace.Strided(base, int64(s), n, 1)
			trace.Replay(c, tr)
			second := trace.Replay(c, tr)

			// The n distinct words fold onto o = L/2^k sets. With q =
			// n/o lines per set and r = n%o sets holding one extra, a
			// set holding one line always hits on pass 2 and a set
			// holding ≥ 2 lines thrashes on every access (cyclic order
			// against a 1-way set).
			o := L >> k
			var predicted uint64
			if n > o {
				q, r := n/o, n%o
				singles := 0
				if q == 1 {
					singles = o - r
				}
				predicted = uint64(n - singles)
			}
			if second.Misses != predicted {
				return fmt.Errorf("L=%d stride=%d n=%d: pass-2 misses = %d, predicted %d", L, s, n, second.Misses, predicted)
			}
			return nil
		},
	}
}

// bankConflictProperty encodes the interleaved-memory analogue (§2.3,
// Oed & Lange): an odd stride visits all 2^m banks and, when the bank
// count covers the access time, incurs zero stalls; and the closed-form
// BanksVisited matches brute-force enumeration.
func bankConflictProperty() Property {
	return Property{
		Name:      "bank-conflict-free-odd-stride",
		Statement: "an odd-stride sweep of 2^m ≥ t_m interleaved banks proceeds without stalls, and BanksVisited = M/gcd(M,s) matches enumeration",
		Check: func(rng *rand.Rand) error {
			m := 2 + rng.Intn(5) // 4..64 banks
			banks := 1 << m
			tm := 1 + rng.Intn(banks) // tm <= M: full bandwidth regime
			sys, err := membank.New(banks, tm)
			if err != nil {
				return err
			}
			s := int64(2*rng.Intn(1<<10) + 1) // odd
			if rng.Intn(2) == 0 {
				s = -s
			}
			n := 1 + rng.Intn(512)
			start := uint64(rng.Intn(1 << 20))
			res := sys.VectorLoad(start, s, n)
			if res.StallCycles != 0 {
				return fmt.Errorf("banks=%d tm=%d stride=%d n=%d: %d stall cycles, want 0", banks, tm, s, n, res.StallCycles)
			}
			if got, want := membank.BanksVisited(banks, s), banks; got != want {
				return fmt.Errorf("BanksVisited(%d, %d) = %d, want %d", banks, s, got, want)
			}
			// Arbitrary (possibly even) stride: formula vs brute force.
			s2 := int64(rng.Intn(1 << 12))
			if got, want := membank.BanksVisited(banks, s2), RefBanksVisited(banks, s2); got != want {
				return fmt.Errorf("BanksVisited(%d, %d) = %d, brute force says %d", banks, s2, got, want)
			}
			return nil
		},
	}
}

// replayPassesProperty checks the replay fold (cache.BatchSim's
// RepeatPass) against the reference simulators, which are not
// BatchSims and so run every pass: a multi-pass trace.ReplayPattern on
// each organisation's fast simulator gives the statistics, victim
// buffer counters and later per-access outcomes of the same replay on
// its reference. Each organisation replays two patterns. The first is
// half the time a short sweep, which the small generated caches often
// hold whole, so that the fast side folds after a pass that evicts
// nothing, and otherwise the generator's, which mostly overflows them.
// The second is a conflict sweep: its stride of 4096 words maps every
// reference to one set of a power-of-two cache, so it evicts on every
// pass and an LRU cache folds it in steady state. A cache of more than
// one way also replays oneSetSweeps. A round in which no multi-way
// cache folded a pass that evicted fails, so the cases cannot drift
// away from that fold unnoticed.
func replayPassesProperty() Property {
	return Property{
		Name:      "replay-passes-match-reference",
		Statement: "a multi-pass pattern replay, which folds the passes after one that evicts nothing or once an LRU cache is in steady state, equals the same replay on the reference simulator of every organisation",
		Check: func(rng *rand.Rand) error {
			g := &Gen{rng: rng}
			multiWayFolds := 0
			for _, kind := range cache.SpecKinds() {
				spec := g.SpecOfKind(kind)
				p, passes := g.Pattern(), 2+rng.Intn(4)
				if rng.Intn(2) == 0 {
					p = trace.Pattern{Name: "strided", Start: uint64(64 + rng.Intn(1<<12)),
						Stride: int64(1 + rng.Intn(8)), N: 1 + rng.Intn(48), Stream: 1 + rng.Intn(2)}
				}
				conflict := trace.Pattern{Name: "strided", Start: uint64(rng.Intn(1 << 12)),
					Stride: 1 << 12, N: 2 + rng.Intn(256), Stream: 1 + rng.Intn(2)}
				for _, c := range []struct {
					p      trace.Pattern
					passes int
				}{{p, passes}, {conflict, 3 + rng.Intn(3)}} {
					if _, err := replayMatchesReference(g, spec, c.p, c.passes); err != nil {
						return err
					}
				}
				n, err := oneSetSweeps(g, spec)
				if err != nil {
					return err
				}
				multiWayFolds += n
			}
			if multiWayFolds == 0 {
				return fmt.Errorf("no multi-way cache folded a pass that evicted, so the round did not check the steady-state fold of a layout")
			}
			return nil
		},
	}
}

// oneSetSweeps replays, when spec builds a Cache of W ≥ 2 ways, two
// sweeps whose every reference maps to one set, each missing on every
// reference of every pass: k·W lines (k ≥ 2), which leave the frames as
// they found them, so an LRU cache must fold them in steady state, and
// k·W+1 lines, whose layout rotates by a way each pass, so no cache may
// fold them. It returns the passes with evictions folded.
func oneSetSweeps(g *Gen, spec cache.Spec) (int, error) {
	sim, err := spec.Build()
	if err != nil {
		return 0, err
	}
	c, ok := sim.(*cache.Cache)
	if !ok || c.Config().Ways < 2 {
		return 0, nil
	}
	cfg, rng := c.Config(), g.rng
	p := trace.Pattern{Name: "strided", Start: uint64(rng.Intn(1 << 12)), Stride: int64(cfg.Mapper.Sets()),
		N: (2 + rng.Intn(3)) * cfg.Ways, Stream: 1 + rng.Intn(2)}
	passes := 3 + rng.Intn(3)
	folded, err := replayMatchesReference(g, spec, p, passes)
	if err != nil {
		return 0, err
	}
	if folded == 0 && cfg.Policy == cache.LRU {
		return 0, fmt.Errorf("spec %s, %s × %d passes: an LRU set cycling a multiple of its ways did not fold", spec, p, passes)
	}
	p.N++
	rotated, err := replayMatchesReference(g, spec, p, passes)
	if err != nil {
		return 0, err
	}
	if rotated != 0 {
		return 0, fmt.Errorf("spec %s, %s × %d passes: folded %d passes of a layout that rotates", spec, p, passes, rotated)
	}
	return folded, nil
}

// replayMatchesReference replays passes passes of p through spec's fast
// simulator and its reference, compares them and then their answers to
// a generated trace, and returns how many passes with evictions the
// fast simulator folded.
func replayMatchesReference(g *Gen, spec cache.Spec, p trace.Pattern, passes int) (int, error) {
	fast, err := spec.Build()
	if err != nil {
		return 0, err
	}
	ref, err := NewRefSim(spec)
	if err != nil {
		return 0, err
	}
	spy := &foldCounter{BatchSim: fast.(cache.BatchSim)}
	got, err := trace.ReplayPattern(spy, p, passes)
	if err != nil {
		return 0, err
	}
	want, err := trace.ReplayPattern(ref, p, passes)
	if err != nil {
		return 0, err
	}
	if got != want {
		return 0, fmt.Errorf("spec %s, %s × %d passes:\n  fast %v\n  ref  %v", spec, p, passes, got, want)
	}
	if fv, ok := fast.(victimStatser); ok && fv.VictimStats() != ref.(victimStatser).VictimStats() {
		return 0, fmt.Errorf("spec %s, %s × %d passes: victim stats %+v, ref %+v",
			spec, p, passes, fv.VictimStats(), ref.(victimStatser).VictimStats())
	}
	for i, r := range g.Trace(128) {
		a := cache.Access{Addr: r.Addr, Write: r.Write, Stream: r.Stream}
		if fr, rr := fast.Access(a), ref.Access(a); !sameResult(fr, rr) {
			return 0, fmt.Errorf("spec %s, %s × %d passes: later access %d (%+v): fast %+v, ref %+v",
				spec, p, passes, i, a, fr, rr)
		}
	}
	return spy.evicting, nil
}

// foldCounter passes everything to the simulator it wraps and counts
// the passes with evictions whose repeats that simulator accepted.
type foldCounter struct {
	cache.BatchSim
	evicting int
}

func (f *foldCounter) RepeatPass(pass cache.Stats, times, runs uint64) bool {
	ok := f.BatchSim.RepeatPass(pass, times, runs)
	if ok && pass.Evictions != 0 {
		f.evicting++
	}
	return ok
}

// Properties returns the full default suite: the paper's mapper theorems
// instantiated for the production prime mapper at c=5 and c=13, the EAC
// adder cross-check, the direct-mapped power-of-two stride law, the
// memory-bank analogue, the analytic strided-sweep cross-check, and the
// multi-pass replay cross-check.
func Properties() []Property {
	var props []Property
	for _, c := range []uint{5, 13} {
		ps, err := PrimeMapperProperties(c)
		if err != nil {
			panic(err) // 5 and 13 are Mersenne prime exponents by construction
		}
		props = append(props, ps...)
	}
	props = append(props, adderProperty(), directPow2Property(), bankConflictProperty(),
		stridedAnalyticProperty(), replayPassesProperty())
	return props
}
