// Command vcachesim is a trace-driven vector-cache simulator: it drives a
// chosen cache organisation with a synthetic vector access pattern and
// reports hit/miss statistics with the three-C split and self/cross
// interference attribution. An invalid pattern, or a zero -n, -stride,
// -ld, -b1 or -b2, exits 2.
//
// Examples:
//
//	vcachesim -cache prime -c 13 -pattern strided -stride 512 -n 4096 -passes 3
//	vcachesim -cache direct -lines 8192 -pattern subblock -ld 10000 -b1 1809 -b2 4
//	vcachesim -cache assoc -lines 8192 -ways 4 -pattern fft -n 16384 -b2 128
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"primecache/internal/cache"
	"primecache/internal/core"
	"primecache/internal/stats"
	"primecache/internal/trace"
)

func main() {
	var (
		kind    = flag.String("cache", "prime", "cache organisation: prime, direct, assoc, full")
		cExp    = flag.Uint("c", 13, "Mersenne exponent for -cache prime (lines = 2^c-1)")
		lines   = flag.Int("lines", 8192, "line count for direct/assoc/full caches")
		ways    = flag.Int("ways", 4, "associativity for -cache assoc")
		policy  = flag.String("policy", "lru", "replacement policy for -cache assoc: lru, fifo, random")
		pattern = flag.String("pattern", "strided", "access pattern: strided, subblock, fft, rowcol, diagonal")
		start   = flag.Uint64("start", 0, "starting word address")
		stride  = flag.Int64("stride", 1, "word stride for -pattern strided")
		n       = flag.Int("n", 4096, "elements per pass (strided/diagonal) or total points (fft)")
		passes  = flag.Int("passes", 2, "number of sweeps over the pattern")
		ld      = flag.Int("ld", 10000, "matrix leading dimension (subblock/rowcol/diagonal)")
		b1      = flag.Int("b1", 64, "sub-block rows for -pattern subblock")
		b2      = flag.Int("b2", 64, "sub-block columns (subblock) or FFT B2 (fft)")
		inFile  = flag.String("tracefile", "", "replay a trace file ('R|W hexaddr [stream]' lines) instead of a synthetic pattern")
		asJSON  = flag.Bool("json", false, "emit statistics as JSON (for scripting)")
		fit     = flag.Bool("fit", false, "with -tracefile: also print the fitted VCM workload parameters")
	)
	flag.Parse()

	vc, err := core.FromSpec(cache.Spec{Kind: *kind, C: *cExp, Lines: *lines, Ways: *ways, Policy: *policy})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcachesim:", err)
		os.Exit(2)
	}

	// Strided patterns run through the vector API so the prime cache's
	// Figure-1 address unit (and its adder-step counter) is exercised;
	// composite patterns replay a prebuilt trace.
	refsPerPass := 0
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcachesim:", err)
			os.Exit(2)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcachesim:", err)
			os.Exit(2)
		}
		refsPerPass = len(tr)
		for p := 0; p < *passes; p++ {
			trace.Replay(vc.Cache(), tr)
		}
		printStats(vc, "file:"+*inFile, *passes, refsPerPass, *asJSON)
		if *fit {
			v, err := trace.FitVCM(tr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vcachesim:", err)
				os.Exit(1)
			}
			fmt.Printf("fitted VCM: B=%d R=%d Pds=%.3f P1(s1)=%.3f P1(s2)=%.3f\n",
				v.B, v.R, v.Pds, v.P1S1, v.P1S2)
			for _, prof := range trace.Profile(tr) {
				fmt.Printf("stream %d stride histogram (top 5 of %d steps):\n", prof.Stream, prof.Accesses-1)
				h := stats.NewHistogram()
				for st, n := range prof.StrideHist {
					h.ObserveN(st, n)
				}
				if err := h.Render(os.Stdout, 5, 30); err != nil {
					fmt.Fprintln(os.Stderr, "vcachesim:", err)
					os.Exit(1)
				}
			}
		}
		return
	}
	// trace.Pattern reads a zero as "use the default"; a zero flag is a
	// mistake, not a request for the default.
	for _, name := range []string{"n", "stride", "ld", "b1", "b2"} {
		if flag.Lookup(name).Value.String() == "0" {
			fmt.Fprintf(os.Stderr, "vcachesim: -%s must not be 0\n", name)
			os.Exit(2)
		}
	}
	p := trace.Pattern{Name: *pattern, Start: *start, Stride: *stride, N: *n, LD: *ld, B1: *b1, B2: *b2}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "vcachesim:", err)
		os.Exit(2)
	}
	if vstart, vstride, vn, ok := p.Vector(); ok {
		refsPerPass = vn
		for pass := 0; pass < *passes; pass++ {
			if _, err := vc.LoadVector(vstart, vstride, vn, 1); err != nil {
				fmt.Fprintln(os.Stderr, "vcachesim:", err)
				os.Exit(1)
			}
		}
	} else {
		tr, _ := p.Build() // p validated above
		refsPerPass = len(tr)
		for pass := 0; pass < *passes; pass++ {
			trace.Replay(vc.Cache(), tr)
		}
	}
	printStats(vc, *pattern, *passes, refsPerPass, *asJSON)
}

func printStats(vc *core.VectorCache, pattern string, passes, refsPerPass int, asJSON bool) {
	s := vc.Stats()
	if asJSON {
		out := map[string]interface{}{
			"cache":       vc.Cache().Describe(),
			"pattern":     pattern,
			"passes":      passes,
			"refsPerPass": refsPerPass,
			"stats":       s,
			"adderSteps":  vc.AdderSteps(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "vcachesim:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("cache:    %s\n", vc.Cache().Describe())
	fmt.Printf("pattern:  %s × %d passes (%d refs/pass)\n", pattern, passes, refsPerPass)
	fmt.Printf("accesses: %d (reads %d, writes %d)\n", s.Accesses, s.Reads, s.Writes)
	fmt.Printf("hits:     %d (%.2f%%)\n", s.Hits, 100*s.HitRatio())
	fmt.Printf("misses:   %d (%.2f%%)  compulsory %d, capacity %d, conflict %d\n",
		s.Misses, 100*s.MissRatio(), s.Compulsory, s.Capacity, s.Conflict)
	fmt.Printf("interference: self %d, cross %d\n", s.SelfInterference, s.CrossInterference)
	if vc.IsPrimeMapped() {
		fmt.Printf("mersenne adder steps: %d\n", vc.AdderSteps())
	}
}
