// Command tracegen writes address-trace files in the repository's text
// format ('R|W hexaddr stream'), either from a synthetic pattern (any
// trace.Pattern name) or from a VCM workload specification — the
// producer side of vcachesim's -tracefile and -fit consumers. An
// invalid pattern, or a zero -n, -stride, -ld, -b1 or -b2, exits 2.
//
// Examples:
//
//	tracegen -pattern strided -stride 512 -n 4096 -passes 3 > t.trace
//	tracegen -pattern vcm -b 2048 -r 8 -pds 0.25 -s1 512 -s2 1 > t.trace
//	tracegen -pattern subblock -ld 10000 -b1 1809 -b2 4 > t.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"primecache/internal/trace"
	"primecache/internal/vcm"
)

func main() {
	var (
		pattern = flag.String("pattern", "strided", "pattern: strided, diagonal, subblock, rowcol, fft, vcm")
		start   = flag.Uint64("start", 0, "starting word address")
		stride  = flag.Int64("stride", 1, "word stride (strided)")
		n       = flag.Int("n", 4096, "elements per pass (strided/diagonal/rowcol) or points (fft)")
		passes  = flag.Int("passes", 1, "repetitions of the pattern")
		ld      = flag.Int("ld", 10000, "leading dimension (subblock/rowcol/diagonal)")
		b1      = flag.Int("b1", 64, "sub-block rows")
		b2      = flag.Int("b2", 64, "sub-block columns / FFT B2")
		b       = flag.Int("b", 2048, "VCM blocking factor")
		r       = flag.Int("r", 8, "VCM reuse factor")
		pds     = flag.Float64("pds", 0, "VCM double-stream probability")
		s1      = flag.Int64("s1", 1, "VCM stream-1 stride")
		s2      = flag.Int64("s2", 1, "VCM stream-2 stride")
	)
	flag.Parse()

	var tr trace.Trace
	var err error
	if *pattern == "vcm" {
		work := vcm.VCM{B: *b, R: *r, Pds: *pds, P1S1: 0.25, P1S2: 0.25}
		tr, err = trace.FromVCM(work, *s1, *s2, *start, *start+uint64(*b)*uint64(abs64(*s1))+4096)
		*passes = 1 // FromVCM already contains the R passes
	} else {
		// trace.Pattern reads a zero as "use the default"; a zero flag is
		// a mistake, not a request for the default.
		for _, name := range []string{"n", "stride", "ld", "b1", "b2"} {
			if flag.Lookup(name).Value.String() == "0" {
				err = fmt.Errorf("-%s must not be 0", name)
			}
		}
		if err == nil {
			tr, err = trace.Pattern{Name: *pattern, Start: *start, Stride: *stride,
				N: *n, LD: *ld, B1: *b1, B2: *b2}.Build()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}
	tr = trace.Repeat(tr, *passes)
	if _, err := tr.WriteTo(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
