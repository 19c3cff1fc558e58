package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"primecache/internal/cache"
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

// A runGroup is count strided runs of n references each, in order: the
// i'th starts at word base + i·step and steps by stride words, and every
// reference is attributed to stream. Grouping equal runs lets RefCount
// and the Cursor skip a group in O(1) however many runs it holds.
type runGroup struct {
	base   uint64
	step   uint64
	count  int
	stride int64
	n      int
	stream int
}

// runs describes one pass of the normalised pattern p as at most two
// groups of strided runs. It is the one statement of the references
// each pattern makes: the Cursor (which Build drains), RefCount and
// Vector all read it. An unknown name has no runs.
func (p Pattern) runs() [2]runGroup {
	switch p.Name {
	case "strided":
		return [2]runGroup{{base: p.Start, count: 1, stride: p.Stride, n: p.N, stream: p.Stream}}
	case "diagonal":
		return [2]runGroup{{base: p.Start, count: 1, stride: int64(p.LD) + 1, n: p.N, stream: p.Stream}}
	case "subblock":
		// b2 columns of b1 words, ld words apart.
		return [2]runGroup{{base: p.Start, step: uint64(p.LD), count: p.B2, stride: 1, n: p.B1, stream: p.Stream}}
	case "rowcol":
		// A column sweep (stride 1) capped at the column height, then a
		// row sweep (stride ld) on the next stream.
		return [2]runGroup{
			{base: p.Start, count: 1, stride: 1, n: min(p.N/2, p.LD), stream: p.Stream},
			{base: p.Start, count: 1, stride: int64(p.LD), n: p.N / 2, stream: p.Stream + 1},
		}
	case "fft":
		// b2 rows of n/b2 points, each with stride b2.
		return [2]runGroup{{base: p.Start, step: 1, count: p.B2, stride: int64(p.B2), n: p.N / p.B2, stream: p.Stream}}
	}
	return [2]runGroup{}
}

// RefCount returns the number of references one pass of the pattern
// makes — len(Build()) without the allocation — saturating at
// math.MaxInt on overflow. Callers can bound a job against a reference
// budget before paying for the trace.
func (p Pattern) RefCount() int {
	total := 0
	for _, g := range p.Normalize().runs() {
		if g.count > 0 && g.n > 0 {
			total = satAdd(total, satMul(g.count, g.n))
		}
	}
	return total
}

// Vector returns the one strided vector a pass of a strided or
// diagonal pattern is — its first word, word stride and length — with
// ok true; every other pattern has ok false. It is meaningful only for
// a pattern that validates.
func (p Pattern) Vector() (start uint64, stride int64, n int, ok bool) {
	p = p.Normalize()
	if p.Name != "strided" && p.Name != "diagonal" {
		return 0, 0, 0, false
	}
	g := p.runs()[0]
	return g.base, g.stride, g.n, true
}

// satMul and satAdd multiply/add positive ints, saturating at
// math.MaxInt instead of wrapping.
func satMul(a, b int) int {
	if b > math.MaxInt/a {
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

// Build materialises one pass of the pattern as a Trace, drained from
// its Cursor.
func (p Pattern) Build() (Trace, error) {
	c, err := NewCursor(p)
	if err != nil {
		return nil, err
	}
	tr := make(Trace, 0, p.RefCount())
	var buf [replayChunk]cache.Access
	for n := c.Next(buf[:]); n > 0; n = c.Next(buf[:]) {
		for _, a := range buf[:n] {
			tr = append(tr, Ref{Addr: a.Addr, Stream: a.Stream})
		}
	}
	return tr, nil
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
