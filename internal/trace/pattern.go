package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Pattern is a serialisable description of a synthetic access pattern —
// the generator codec shared by the vcachesim CLI and the vcached
// server. Zero-valued fields take the CLI's historical defaults in
// Normalize.
type Pattern struct {
	// Name selects the generator: "strided", "diagonal", "subblock",
	// "rowcol", or "fft".
	Name string `json:"name"`
	// Start is the starting word address.
	Start uint64 `json:"start,omitempty"`
	// Stride is the word stride for "strided" (default 1).
	Stride int64 `json:"stride,omitempty"`
	// N is elements per pass (strided/diagonal/rowcol) or total points
	// (fft); default 4096.
	N int `json:"n,omitempty"`
	// LD is the matrix leading dimension for subblock/rowcol/diagonal
	// (default 10000).
	LD int `json:"ld,omitempty"`
	// B1 and B2 are sub-block rows/columns ("subblock") or the FFT B2
	// ("fft"); default 64.
	B1 int `json:"b1,omitempty"`
	B2 int `json:"b2,omitempty"`
	// Stream is the vector-stream id accesses are attributed to
	// (default 1).
	Stream int `json:"stream,omitempty"`
}

// Normalize returns a copy of p with defaults filled in for zero-valued
// fields.
func (p Pattern) Normalize() Pattern {
	if p.Name == "" {
		p.Name = "strided"
	}
	p.Name = strings.ToLower(p.Name)
	if p.Stride == 0 {
		p.Stride = 1
	}
	if p.N == 0 {
		p.N = 4096
	}
	if p.LD == 0 {
		p.LD = 10000
	}
	if p.B1 == 0 {
		p.B1 = 64
	}
	if p.B2 == 0 {
		p.B2 = 64
	}
	if p.Stream == 0 {
		p.Stream = 1
	}
	return p
}

// Validate checks the (normalised) pattern without materialising it.
func (p Pattern) Validate() error {
	p = p.Normalize()
	switch p.Name {
	case "strided", "diagonal", "subblock", "rowcol", "fft":
	default:
		return fmt.Errorf("trace: unknown pattern %q (want strided, diagonal, subblock, rowcol, or fft)", p.Name)
	}
	if p.N < 0 {
		return fmt.Errorf("trace: pattern n must be non-negative, got %d", p.N)
	}
	if p.LD <= 0 {
		return fmt.Errorf("trace: pattern ld must be positive, got %d", p.LD)
	}
	if p.B1 < 0 || p.B2 < 0 {
		return fmt.Errorf("trace: pattern b1/b2 must be non-negative, got %d/%d", p.B1, p.B2)
	}
	if p.Name == "fft" && (p.B2 <= 0 || p.N%p.B2 != 0) {
		return fmt.Errorf("trace: fft pattern needs b2 (%d) dividing n (%d)", p.B2, p.N)
	}
	return nil
}

// RefCount returns the number of references one pass of the pattern
// materialises — len(Build()) without the allocation — saturating at
// math.MaxInt on overflow. Callers can bound a job against a reference
// budget before paying for the trace.
func (p Pattern) RefCount() int {
	p = p.Normalize()
	switch p.Name {
	case "strided", "diagonal":
		return p.N
	case "subblock":
		return satMul(p.B1, p.B2)
	case "rowcol":
		// Build caps the column sweep at min(n/2, ld) and appends an
		// n/2-element row sweep.
		col := p.N / 2
		if col > p.LD {
			col = p.LD
		}
		return satAdd(col, p.N/2)
	case "fft":
		if p.B2 <= 0 {
			return 0
		}
		return satMul(p.B2, p.N/p.B2)
	default:
		return 0
	}
}

// satMul and satAdd multiply/add non-negative ints, saturating at
// math.MaxInt instead of wrapping.
func satMul(a, b int) int {
	if a > 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// Build materialises one pass of the pattern as a Trace.
func (p Pattern) Build() (Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.Normalize()
	switch p.Name {
	case "strided":
		return Strided(p.Start, p.Stride, p.N, p.Stream), nil
	case "diagonal":
		return Diagonal(p.Start, p.LD, p.N, p.Stream), nil
	case "subblock":
		return Subblock(p.Start, p.LD, p.B1, p.B2, p.Stream), nil
	case "rowcol":
		// Alternating column (stride 1) and row (stride ld) sweeps.
		col := Column(p.Start, p.LD, 0, p.Stream)
		row := Row(p.Start, p.LD, p.N/2, 0, p.Stream+1)
		n := p.N / 2
		if n > len(col) {
			n = len(col)
		}
		return Concat(col[:n], row), nil
	case "fft":
		rows := p.B2
		cols := p.N / p.B2
		var tr Trace
		for r := 0; r < rows; r++ {
			tr = append(tr, Strided(p.Start+uint64(r), int64(p.B2), cols, p.Stream)...)
		}
		return tr, nil
	default:
		return nil, fmt.Errorf("trace: unknown pattern %q", p.Name)
	}
}

// String returns the canonical compact form of the normalised pattern;
// equal patterns render identically, so the string doubles as a
// memoization key component.
func (p Pattern) String() string {
	var buf [96]byte
	return string(p.AppendTo(buf[:0]))
}

// AppendTo appends String's form of p to dst and returns the extended
// slice: the name, then the fields its generator reads. An unknown
// name has none.
func (p Pattern) AppendTo(dst []byte) []byte {
	p = p.Normalize()
	dst = append(dst, p.Name...)
	bare := len(dst)
	dst = strconv.AppendUint(append(dst, ":start="...), p.Start, 10)
	switch p.Name {
	case "strided":
		dst = appendField(appendField(dst, ",stride=", p.Stride), ",n=", int64(p.N))
	case "diagonal", "rowcol":
		dst = appendField(appendField(dst, ",ld=", int64(p.LD)), ",n=", int64(p.N))
	case "subblock":
		dst = appendField(appendField(appendField(dst, ",ld=", int64(p.LD)), ",b1=", int64(p.B1)), ",b2=", int64(p.B2))
	case "fft":
		dst = appendField(appendField(dst, ",n=", int64(p.N)), ",b2=", int64(p.B2))
	default:
		return dst[:bare]
	}
	return appendField(dst, ",stream=", int64(p.Stream))
}

// appendField appends key, then v in decimal.
func appendField(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}
