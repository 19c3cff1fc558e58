package cache_test

import (
	"fmt"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/oracle"
)

// invalidSpecs breaks every check a constructor makes, one at a time,
// plus two with several faults, where the order of the checks decides
// the error.
var invalidSpecs = []cache.Spec{
	{Kind: "bogus"},
	{Kind: "prime", C: 4},
	{Kind: "prime", C: 32},
	{Kind: "direct", Lines: 100},
	{Kind: "direct", Lines: -8},
	{Kind: "assoc", Policy: "mru"},
	{Kind: "assoc", Policy: "mru", Lines: 100},
	{Kind: "assoc", Lines: 100, Ways: 3},
	{Kind: "assoc", Lines: 96, Ways: 4},
	{Kind: "assoc", Ways: -4},
	{Kind: "full", Lines: -1},
	{Kind: "prime-assoc", C: 6},
	{Kind: "prime-assoc", Ways: -2},
	{Kind: "prime-assoc", C: 6, Ways: -2},
	{Kind: "prime-assoc", C: 31, Ways: 1 << 62},
	{Kind: "skewed", Lines: 2},
	{Kind: "skewed", Lines: 12},
	{Kind: "victim", Lines: 100},
	{Kind: "victim", VictimLines: -1},
	{Kind: "victim", Lines: 100, VictimLines: -1},
}

// TestValidateMatchesBuild proves that Spec.Validate, which builds
// nothing, accepts and rejects exactly the specs Build does, with the
// same error, for every spec the oracle generator makes and a list of
// invalid ones; and that validating a valid spec allocates nothing.
func TestValidateMatchesBuild(t *testing.T) {
	g := oracle.NewGen(batchSeed + 3)
	specs := append([]cache.Spec(nil), invalidSpecs...)
	specs = append(specs, benchSpecs...)
	for _, kind := range cache.SpecKinds() {
		for i := 0; i < 20; i++ {
			specs = append(specs, g.SpecOfKind(kind))
		}
	}
	errString := func(err error) string { return fmt.Sprint(err) }
	for _, s := range specs {
		verr := s.Validate()
		_, berr := s.Build()
		if errString(verr) != errString(berr) {
			t.Errorf("%+v: Validate error %q, Build error %q", s, errString(verr), errString(berr))
			continue
		}
		if verr != nil {
			continue
		}
		if a := testing.AllocsPerRun(10, func() { _ = s.Validate() }); a != 0 {
			t.Errorf("%s: Validate allocates %v times, want 0", s, a)
		}
	}
	for _, s := range invalidSpecs {
		if s.Validate() == nil {
			t.Errorf("%+v: Validate accepted an invalid spec", s)
		}
	}
}

// TestSpecDescribeMatchesBuild proves that Spec.Describe, which builds
// nothing, names the organisation exactly as the built cache does: for
// the oracle generator's specs of every kind, the benchmark specs, the
// reuse specs, and every kind at its defaults.
func TestSpecDescribeMatchesBuild(t *testing.T) {
	g := oracle.NewGen(batchSeed + 5)
	specs := append([]cache.Spec(nil), benchSpecs...)
	for _, kind := range cache.SpecKinds() {
		specs = append(specs, cache.Spec{Kind: kind})
		for i := 0; i < 20; i++ {
			specs = append(specs, g.SpecOfKind(kind))
		}
	}
	for _, s := range reuseSpecs {
		specs = append(specs, s)
	}
	for _, s := range specs {
		sim, err := s.Build()
		if err != nil {
			t.Fatalf("build %+v: %v", s, err)
		}
		if got, want := s.Describe(), sim.Describe(); got != want {
			t.Errorf("%s: Describe() = %q, Build().Describe() = %q", s, got, want)
		}
	}
}
