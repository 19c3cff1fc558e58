package cache_test

// External test package: the oracle package imports cache, so the
// reference-model fuzz target must live outside package cache to avoid
// an import cycle.

import (
	"testing"

	"primecache/internal/cache"
	"primecache/internal/oracle"
	"primecache/internal/trace"
)

// FuzzSimVsReference replays a fuzzer-decoded trace through a seeded
// random cache organisation and its map-backed reference, requiring
// access-for-access and statistic-for-statistic agreement across all
// seven Spec kinds. The trace wire format is three bytes per reference:
// a 16-bit word address plus a flag byte (bit 0 write, bits 1.. stream).
// The seed corpus encodes the classic offenders from the table tests:
// stride-32 power-of-two sweeps, repeated single-line hammering, and a
// two-stream interleave, two wide sets, and sweeps that overflow the
// classification shadow.
func FuzzSimVsReference(f *testing.F) {
	pack := func(tr trace.Trace) []byte {
		var out []byte
		for _, r := range tr {
			w := r.Addr / 8
			flags := byte(r.Stream&0x7f) << 1
			if r.Write {
				flags |= 1
			}
			out = append(out, byte(w), byte(w>>8), flags)
		}
		return out
	}
	f.Add(int64(1), uint8(0), pack(trace.Strided(0, 32, 64, 1)))
	f.Add(int64(2), uint8(2), pack(trace.Strided(0, 1, 128, 1)))
	f.Add(int64(3), uint8(6), pack(trace.Concat(trace.Strided(7, 0, 16, 1), trace.Strided(7, 0, 16, 2))))
	f.Add(int64(4), uint8(5), pack(trace.Interleave(trace.Strided(0, 31, 62, 1), trace.StridedWrite(3, 8, 40, 2))))
	// Wide sets, found through the line index: seed 8 draws a 16-way
	// random-replacement assoc cache of 8 sets, here overflowed set by
	// set; seed 4 draws a 128-line full cache, cycled over 160 lines.
	f.Add(int64(8), uint8(2), pack(trace.Interleave(trace.Strided(0, 8, 40, 1), trace.StridedWrite(1, 8, 24, 2), trace.Strided(0, 8, 40, 3))))
	f.Add(int64(4), uint8(3), pack(trace.Repeat(trace.Strided(0, 1, 160, 1), 2)))
	// Repeated strided sweeps of more lines than the cache holds, so
	// the classification shadow drops lines off its tail and takes them
	// back: seed 2 draws a 31-line prime cache, seed 5 a 16-line direct
	// cache (every line in one set), a 14-line 2-way prime-assoc cache
	// and a 16-line skewed cache, seed 2 a 64-line victim cache.
	f.Add(int64(2), uint8(0), pack(trace.Repeat(trace.Interleave(trace.Strided(0, 3, 40, 1), trace.StridedWrite(1, 3, 8, 2)), 3)))
	f.Add(int64(5), uint8(1), pack(trace.Repeat(trace.Strided(0, 16, 20, 1), 3)))
	f.Add(int64(5), uint8(4), pack(trace.Repeat(trace.Strided(0, 9, 18, 1), 4)))
	f.Add(int64(5), uint8(5), pack(trace.Repeat(trace.Strided(0, 5, 24, 1), 4)))
	f.Add(int64(2), uint8(6), pack(trace.Repeat(trace.Strided(0, 7, 80, 1), 3)))
	f.Fuzz(func(t *testing.T, seed int64, kindSel uint8, data []byte) {
		kinds := cache.SpecKinds()
		kind := kinds[int(kindSel)%len(kinds)]
		spec := oracle.NewGen(seed).SpecOfKind(kind)

		const maxRefs = 1024
		n := len(data) / 3
		if n > maxRefs {
			n = maxRefs
		}
		tr := make(trace.Trace, 0, n)
		for i := 0; i < n; i++ {
			b := data[i*3 : i*3+3]
			word := uint64(b[0]) | uint64(b[1])<<8
			tr = append(tr, trace.Ref{
				Addr:   word * 8,
				Write:  b[2]&1 != 0,
				Stream: 1 + int(b[2]>>1)%3,
			})
		}

		d, err := oracle.Diff(spec, tr)
		if err != nil {
			t.Fatalf("spec %v: %v", spec, err)
		}
		if d != nil {
			t.Fatalf("fast simulator diverged from reference:\n%s", d)
		}
	})
}
