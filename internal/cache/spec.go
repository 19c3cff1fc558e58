package cache

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Sim is the minimal interface every cache organisation in this package
// implements: the plain Cache, the SkewedCache, and the VictimCache. It
// is what trace replay and the vcached server program against, so one
// codec can drive any organisation. Implementations are not safe for
// concurrent use; callers own one Sim per goroutine.
type Sim interface {
	Access(Access) Result
	Stats() Stats
	Describe() string
	Flush()
}

var (
	_ Sim = (*Cache)(nil)
	_ Sim = (*SkewedCache)(nil)
	_ Sim = (*VictimCache)(nil)
)

// Spec is a serialisable description of a cache organisation — the one
// configuration codec shared by the vcachesim CLI flags, the vcached
// server's JSON API, and tests. Zero-valued fields take kind-appropriate
// defaults in Normalize.
type Spec struct {
	// Kind selects the organisation: "prime", "direct", "assoc", "full",
	// "prime-assoc", "skewed", or "victim".
	Kind string `json:"kind"`
	// C is the Mersenne exponent for prime and prime-assoc kinds
	// (lines = 2^c − 1; default 13).
	C uint `json:"c,omitempty"`
	// Lines is the line count for the non-prime kinds (default 8192).
	Lines int `json:"lines,omitempty"`
	// Ways is the associativity for assoc and prime-assoc (default 4
	// resp. 2).
	Ways int `json:"ways,omitempty"`
	// Policy is the replacement policy for assoc: "lru", "fifo",
	// "random" (default "lru").
	Policy string `json:"policy,omitempty"`
	// VictimLines is the victim-buffer size for kind "victim"
	// (default 8).
	VictimLines int `json:"victimLines,omitempty"`
}

// SpecKinds lists the valid Spec.Kind values.
func SpecKinds() []string {
	return []string{"prime", "direct", "assoc", "full", "prime-assoc", "skewed", "victim"}
}

// ParsePolicy converts a policy name ("lru", "fifo", "random") into a
// Policy.
func ParsePolicy(name string) (Policy, error) {
	switch strings.ToLower(name) {
	case "", "lru":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	case "random":
		return Random, nil
	default:
		return 0, fmt.Errorf("cache: unknown policy %q (want lru, fifo, or random)", name)
	}
}

// Normalize returns a copy of s with defaults filled in for zero-valued
// fields.
func (s Spec) Normalize() Spec {
	if s.Kind == "" {
		s.Kind = "prime"
	}
	s.Kind = strings.ToLower(s.Kind)
	if s.C == 0 {
		s.C = 13
	}
	if s.Lines == 0 {
		s.Lines = 8192
	}
	if s.Ways == 0 {
		switch s.Kind {
		case "prime-assoc":
			s.Ways = 2
		default:
			s.Ways = 4
		}
	}
	if s.Policy == "" {
		s.Policy = "lru"
	}
	if s.VictimLines == 0 {
		s.VictimLines = 8
	}
	return s
}

// Validate checks the (normalised) spec without building anything: it
// runs the checks of the constructor Build calls for the kind, in the
// same order, and allocates nothing for a valid spec written in lower
// case. Build runs it first, so the two return the same error.
func (s Spec) Validate() error {
	s = s.Normalize()
	var (
		sets, ways = 0, 1 // geometry a New-built kind hands to checkShape
		policy     = LRU
		err        error
	)
	switch s.Kind {
	case "prime":
		var m PrimeMapper
		m, err = NewPrimeMapper(s.C)
		sets = m.Sets()
	case "direct", "victim":
		var m DirectMapper
		m, err = NewDirectMapper(s.Lines)
		sets = m.Sets()
	case "assoc":
		if policy, err = ParsePolicy(s.Policy); err != nil {
			return err
		}
		var m DirectMapper
		m, err = setAssocMapper(s.Lines, s.Ways)
		sets, ways = m.Sets(), s.Ways
	case "full":
		var m ModuloMapper
		m, err = NewModuloMapper(1)
		sets, ways = m.Sets(), s.Lines
	case "prime-assoc":
		var m PrimeMapper
		m, err = primeAssocMapper(s.C, s.Ways)
		sets, ways = m.Sets(), s.Ways
	case "skewed":
		return checkSkewed(s.Lines)
	default:
		return fmt.Errorf("cache: unknown kind %q (want one of %s)",
			s.Kind, strings.Join(SpecKinds(), ", "))
	}
	if err != nil {
		return err
	}
	if err := checkShape(sets, ways, 0, policy); err != nil {
		return err
	}
	if s.Kind == "victim" {
		return checkVictimBuffer(s.VictimLines)
	}
	return nil
}

// Frames returns the number of line frames the (normalised) spec's
// cache holds: every way of every set, plus the victim buffer for kind
// "victim". It is meaningful only for a spec that validates, and
// saturates at math.MaxInt; a server bounds it before calling Build.
func (s Spec) Frames() int {
	s = s.Normalize()
	switch s.Kind {
	case "prime":
		return 1<<s.C - 1
	case "prime-assoc":
		return (1<<s.C - 1) * s.Ways // Validate rules out overflow
	case "victim":
		if s.VictimLines > math.MaxInt-s.Lines {
			return math.MaxInt
		}
		return s.Lines + s.VictimLines
	default:
		return s.Lines
	}
}

// Describe returns the description Build().Describe() gives, without
// building anything. It is meaningful only for a spec that validates.
func (s Spec) Describe() string {
	s = s.Normalize()
	switch s.Kind {
	case "prime":
		return describeCache("prime", 1<<s.C-1, 1, DefaultLineBytes, LRU)
	case "direct":
		return describeCache("direct", s.Lines, 1, DefaultLineBytes, LRU)
	case "assoc":
		p, _ := ParsePolicy(s.Policy)
		return describeCache("direct", s.Lines/s.Ways, s.Ways, DefaultLineBytes, p)
	case "full":
		return describeCache("modulo", 1, s.Lines, DefaultLineBytes, LRU)
	case "prime-assoc":
		return describeCache("prime", 1<<s.C-1, s.Ways, DefaultLineBytes, LRU)
	case "skewed":
		return describeSkewed(s.Lines / 2)
	default: // "victim"
		return describeVictim(s.Lines, s.VictimLines)
	}
}

// Build constructs the described cache organisation. The spec is
// normalised first, so zero-valued fields take their defaults.
func (s Spec) Build() (Sim, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.Normalize()
	switch s.Kind {
	case "prime":
		return NewPrime(s.C)
	case "direct":
		return NewDirect(s.Lines)
	case "assoc":
		p, err := ParsePolicy(s.Policy)
		if err != nil {
			return nil, err
		}
		return NewSetAssoc(s.Lines, s.Ways, p)
	case "full":
		return NewFullyAssoc(s.Lines)
	case "prime-assoc":
		return NewPrimeAssoc(s.C, s.Ways)
	case "skewed":
		return NewSkewed(s.Lines)
	default: // "victim"; Validate rejected every other kind
		return NewVictim(s.Lines, s.VictimLines)
	}
}

// ParseSpec parses the compact one-string form "kind" or
// "kind:key=val,key=val" (e.g. "prime:c=13", "assoc:lines=8192,ways=4,
// policy=fifo", "victim:lines=8192,victim=8") used by CLI flags and
// tests. Keys: c, lines, ways, policy, victim.
func ParseSpec(expr string) (Spec, error) {
	var s Spec
	kind, rest, _ := strings.Cut(strings.TrimSpace(expr), ":")
	s.Kind = strings.ToLower(strings.TrimSpace(kind))
	if s.Kind == "" {
		return s, fmt.Errorf("cache: empty spec %q", expr)
	}
	if rest != "" {
		for _, field := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return s, fmt.Errorf("cache: spec field %q is not key=value", field)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			switch key {
			case "c":
				n, err := strconv.ParseUint(val, 10, 8)
				if err != nil {
					return s, fmt.Errorf("cache: spec c=%q: %v", val, err)
				}
				s.C = uint(n)
			case "lines":
				n, err := strconv.Atoi(val)
				if err != nil {
					return s, fmt.Errorf("cache: spec lines=%q: %v", val, err)
				}
				s.Lines = n
			case "ways":
				n, err := strconv.Atoi(val)
				if err != nil {
					return s, fmt.Errorf("cache: spec ways=%q: %v", val, err)
				}
				s.Ways = n
			case "policy":
				s.Policy = val
			case "victim":
				n, err := strconv.Atoi(val)
				if err != nil {
					return s, fmt.Errorf("cache: spec victim=%q: %v", val, err)
				}
				s.VictimLines = n
			default:
				return s, fmt.Errorf("cache: unknown spec key %q", key)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// SpecFromJSON decodes a Spec from JSON, rejecting unknown fields, and
// validates it.
func SpecFromJSON(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("cache: decoding spec: %v", err)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// String returns the canonical compact form of the normalised spec: the
// kind followed by the key=value fields that matter for it, in a fixed
// order. Equal organisations render identically, so the string doubles
// as a memoization key component.
func (s Spec) String() string {
	var buf [48]byte
	return string(s.AppendTo(buf[:0]))
}

// AppendTo appends String's form of s to dst and returns the extended
// slice. The fields follow the kind in alphabetical order of their
// keys (c, lines, policy, victim, ways); an unknown kind has none.
func (s Spec) AppendTo(dst []byte) []byte {
	s = s.Normalize()
	dst = append(dst, s.Kind...)
	switch s.Kind {
	case "prime":
		dst = strconv.AppendUint(append(dst, ":c="...), uint64(s.C), 10)
	case "prime-assoc":
		dst = strconv.AppendUint(append(dst, ":c="...), uint64(s.C), 10)
		dst = strconv.AppendInt(append(dst, ",ways="...), int64(s.Ways), 10)
	case "direct", "full", "skewed":
		dst = strconv.AppendInt(append(dst, ":lines="...), int64(s.Lines), 10)
	case "assoc":
		dst = strconv.AppendInt(append(dst, ":lines="...), int64(s.Lines), 10)
		dst = append(append(dst, ",policy="...), strings.ToLower(s.Policy)...)
		dst = strconv.AppendInt(append(dst, ",ways="...), int64(s.Ways), 10)
	case "victim":
		dst = strconv.AppendInt(append(dst, ":lines="...), int64(s.Lines), 10)
		dst = strconv.AppendInt(append(dst, ",victim="...), int64(s.VictimLines), 10)
	}
	return dst
}
