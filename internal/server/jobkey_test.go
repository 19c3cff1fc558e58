package server

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/trace"
)

// The job keys used to be built with a map, a sort and fmt. Those
// builders stay here as references: memo keys, persist keys, ETags and
// ring routes all derive from the keys, so the appending builders must
// reproduce them byte for byte.

// refSpecString is cache.Spec.String as a map of fields sorted by key.
func refSpecString(s cache.Spec) string {
	s = s.Normalize()
	fields := map[string]string{}
	switch s.Kind {
	case "prime":
		fields["c"] = strconv.FormatUint(uint64(s.C), 10)
	case "prime-assoc":
		fields["c"] = strconv.FormatUint(uint64(s.C), 10)
		fields["ways"] = strconv.Itoa(s.Ways)
	case "direct", "full", "skewed":
		fields["lines"] = strconv.Itoa(s.Lines)
	case "assoc":
		fields["lines"] = strconv.Itoa(s.Lines)
		fields["ways"] = strconv.Itoa(s.Ways)
		fields["policy"] = strings.ToLower(s.Policy)
	case "victim":
		fields["lines"] = strconv.Itoa(s.Lines)
		fields["victim"] = strconv.Itoa(s.VictimLines)
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString(s.Kind)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(fields[k])
	}
	return b.String()
}

// refPatternString is trace.Pattern.String through fmt.
func refPatternString(p trace.Pattern) string {
	p = p.Normalize()
	switch p.Name {
	case "strided":
		return fmt.Sprintf("strided:start=%d,stride=%d,n=%d,stream=%d", p.Start, p.Stride, p.N, p.Stream)
	case "diagonal":
		return fmt.Sprintf("diagonal:start=%d,ld=%d,n=%d,stream=%d", p.Start, p.LD, p.N, p.Stream)
	case "subblock":
		return fmt.Sprintf("subblock:start=%d,ld=%d,b1=%d,b2=%d,stream=%d", p.Start, p.LD, p.B1, p.B2, p.Stream)
	case "rowcol":
		return fmt.Sprintf("rowcol:start=%d,ld=%d,n=%d,stream=%d", p.Start, p.LD, p.N, p.Stream)
	case "fft":
		return fmt.Sprintf("fft:start=%d,n=%d,b2=%d,stream=%d", p.Start, p.N, p.B2, p.Stream)
	default:
		return p.Name
	}
}

// refSimulateKey is SimulateRequest.Key by string concatenation.
func refSimulateKey(r SimulateRequest) string {
	r = r.Normalize()
	return "simulate|" + refSpecString(r.Cache) + "|" + refPatternString(r.Pattern) + "|passes=" + strconv.Itoa(r.Passes) + epochSuffix
}

// refModelKey is ModelRequest.Key through fmt.
func refModelKey(r ModelRequest) string {
	r = r.Normalize()
	return fmt.Sprintf("model|banks=%d,tm=%d,b=%d,r=%d,pds=%g,p1=%g,p1s2=%g,n=%d,c=%d",
		r.Banks, r.Tm, r.B, r.R, *r.Pds, *r.P1, *r.P1S2, r.N, r.C) + epochSuffix
}

// keyKinds and keyPatterns are every spec kind and pattern name, the
// empty name that takes the default, upper-case spellings Normalize
// lowers, and an unknown name that renders bare.
var (
	keyKinds    = append(cache.SpecKinds(), "", "PRIME", "Prime-Assoc", "Victim", "bogus")
	keyPatterns = []string{"strided", "diagonal", "subblock", "rowcol", "fft", "", "STRIDED", "Fft", "zigzag"}
	keyPolicies = []string{"", "lru", "FIFO", "Random"}
)

// optFloat returns nil for a negative v, so the default applies, and
// &v otherwise.
func optFloat(v float64) *float64 {
	if v < 0 {
		return nil
	}
	return &v
}

// FuzzJobKey checks the appending key builders against the references
// above: cache.Spec.String, trace.Pattern.String and both job keys.
func FuzzJobKey(f *testing.F) {
	for k := range keyKinds {
		for p := range keyPatterns {
			f.Add(uint8(k), uint8(p), uint8(k), uint(13), 8192, 4, 8,
				uint64(0), int64(512), 4096, 10000, 64, 64, 1, 2,
				64, 32, 4096, 0, 0.25, 0.5, -1.0, 1<<20)
		}
	}
	f.Add(uint8(0), uint8(0), uint8(2), uint(0), 0, 0, 0,
		uint64(math.MaxUint64), int64(-7), 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, -1.0, -1.0, -1.0, 0)
	f.Add(uint8(2), uint8(4), uint8(3), uint(31), 1<<20, 16, 1,
		uint64(1)<<62, int64(math.MinInt64), 1<<30, 1, 3, 5, -2, 1000,
		1024, 7, 1, 3, 0.1, 1.0/3, 2e-7, 12345)
	f.Fuzz(func(t *testing.T, kind, name, policy uint8, c uint, lines, ways, victim int,
		start uint64, stride int64, n, ld, b1, b2, stream, passes int,
		banks, tm, bb, rr int, pds, p1, p1s2 float64, mn int) {
		spec := cache.Spec{Kind: keyKinds[int(kind)%len(keyKinds)], C: c, Lines: lines, Ways: ways,
			Policy: keyPolicies[int(policy)%len(keyPolicies)], VictimLines: victim}
		pat := trace.Pattern{Name: keyPatterns[int(name)%len(keyPatterns)], Start: start, Stride: stride,
			N: n, LD: ld, B1: b1, B2: b2, Stream: stream}
		if got, want := spec.String(), refSpecString(spec); got != want {
			t.Fatalf("Spec%+v.String() = %q, want %q", spec, got, want)
		}
		if got, want := pat.String(), refPatternString(pat); got != want {
			t.Fatalf("Pattern%+v.String() = %q, want %q", pat, got, want)
		}
		sim := SimulateRequest{Cache: spec, Pattern: pat, Passes: passes}
		if got, want := sim.Key(), refSimulateKey(sim); got != want {
			t.Fatalf("SimulateRequest.Key() = %q, want %q", got, want)
		}
		model := ModelRequest{Banks: banks, Tm: tm, B: bb, R: rr,
			Pds: optFloat(pds), P1: optFloat(p1), P1S2: optFloat(p1s2), N: mn, C: c}
		if got, want := model.Key(), refModelKey(model); got != want {
			t.Fatalf("ModelRequest.Key() = %q, want %q", got, want)
		}
	})
}

// TestModelKeyAllocs checks that a model key allocates only its string,
// whether its probabilities are defaulted or given.
func TestModelKeyAllocs(t *testing.T) {
	pds, p1 := 0.2, 0.6
	for _, r := range []ModelRequest{{}, {Banks: 64, Tm: 64, B: 4096, Pds: &pds, P1: &p1, P1S2: &p1}} {
		if a := testing.AllocsPerRun(100, func() { _ = r.Key() }); a != 1 {
			t.Errorf("ModelRequest%+v.Key() allocates %v times, want 1", r, a)
		}
	}
}
