// Package trace builds and replays address traces for the vector access
// patterns the paper studies: strided sweeps, sub-block (sub-matrix)
// accesses, matrix row/column/diagonal walks, and blocked-FFT phases.
// Traces feed the cache simulator (package cache) and give trace-driven
// ground truth for the analytical model's interference counts.
package trace

import (
	"fmt"

	"primecache/internal/cache"
)

// WordBytes is the element size all generators use: one double-precision
// word, matching the paper's fixed 8-byte cache line.
const WordBytes = 8

// Ref is one memory reference.
type Ref struct {
	// Addr is the byte address.
	Addr uint64
	// Write marks a store.
	Write bool
	// Stream is the vector-stream id for interference attribution.
	Stream int
}

// Trace is an ordered reference sequence.
type Trace []Ref

// Strided returns an n-element load stream starting at word index base
// with the given word stride.
func Strided(baseWord uint64, strideWords int64, n, stream int) Trace {
	t := make(Trace, 0, n)
	a := int64(baseWord)
	for i := 0; i < n; i++ {
		t = append(t, Ref{Addr: uint64(a) * WordBytes, Stream: stream})
		a += strideWords
	}
	return t
}

// StridedWrite is Strided with Write set.
func StridedWrite(baseWord uint64, strideWords int64, n, stream int) Trace {
	t := Strided(baseWord, strideWords, n, stream)
	for i := range t {
		t[i].Write = true
	}
	return t
}

// Interleave merges traces round-robin, modelling concurrent vector
// streams (the paper's double-stream accesses). Exhausted traces drop out.
func Interleave(traces ...Trace) Trace {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	out := make(Trace, 0, total)
	idx := make([]int, len(traces))
	for len(out) < total {
		for k, t := range traces {
			if idx[k] < len(t) {
				out = append(out, t[idx[k]])
				idx[k]++
			}
		}
	}
	return out
}

// Repeat concatenates n copies of t, modelling a reuse factor of n.
func Repeat(t Trace, n int) Trace {
	if n <= 0 {
		return nil
	}
	out := make(Trace, 0, len(t)*n)
	for i := 0; i < n; i++ {
		out = append(out, t...)
	}
	return out
}

// Concat joins traces in order.
func Concat(traces ...Trace) Trace {
	var out Trace
	for _, t := range traces {
		out = append(out, t...)
	}
	return out
}

// Column returns a sweep of column j of a P×Q column-major matrix starting
// at word index base: unit stride, length p.
func Column(baseWord uint64, p, j, stream int) Trace {
	return Strided(baseWord+uint64(j*p), 1, p, stream)
}

// Row returns a sweep of row i of a P×Q column-major matrix: stride P,
// length q.
func Row(baseWord uint64, p, q, i, stream int) Trace {
	return Strided(baseWord+uint64(i), int64(p), q, stream)
}

// Diagonal returns the major-diagonal sweep of a P×Q column-major matrix:
// stride P+1, the access the paper notes can never be made conflict-free
// together with rows in a power-of-two cache.
func Diagonal(baseWord uint64, p, n, stream int) Trace {
	return Strided(baseWord, int64(p)+1, n, stream)
}

// Subblock returns a column-major walk of a b1×b2 sub-block of a matrix
// with leading dimension p: b2 unit-stride runs of b1 words, successive
// runs p words apart (§4's sub-block access).
func Subblock(baseWord uint64, p, b1, b2, stream int) Trace {
	t := make(Trace, 0, b1*b2)
	for col := 0; col < b2; col++ {
		t = append(t, Strided(baseWord+uint64(col*p), 1, b1, stream)...)
	}
	return t
}

// FFTStage returns the access stream of one radix-2 butterfly stage over n
// points with butterfly span (stride between pair elements) span: for each
// pair, load both halves. Strides are powers of two in every stage but the
// last — the pattern that thrashes a direct-mapped cache.
func FFTStage(baseWord uint64, n, span, stream int) (Trace, error) {
	if n <= 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("trace: FFT size must be a power of two > 1, got %d", n)
	}
	if span <= 0 || span >= n || n%(2*span) != 0 {
		return nil, fmt.Errorf("trace: invalid FFT span %d for n=%d", span, n)
	}
	t := make(Trace, 0, n)
	for group := 0; group < n; group += 2 * span {
		for k := 0; k < span; k++ {
			i := uint64(group + k)
			t = append(t, Ref{Addr: (baseWord + i) * WordBytes, Stream: stream})
			t = append(t, Ref{Addr: (baseWord + i + uint64(span)) * WordBytes, Stream: stream})
		}
	}
	return t, nil
}

// Replay runs the trace through any cache organisation and returns the
// stats delta for exactly this trace. The references stream through the
// batch API in fixed-size chunks, so organisations with a devirtualized
// fast path (see cache.BatchSim) replay at batch speed; the outcome is
// identical to per-access replay.
func Replay(c cache.Sim, t Trace) cache.Stats {
	before := c.Stats()
	buf := replayBufs.Get().(*[replayChunk]cache.Access)
	defer replayBufs.Put(buf)
	for lo := 0; lo < len(t); lo += replayChunk {
		hi := lo + replayChunk
		if hi > len(t) {
			hi = len(t)
		}
		n := hi - lo
		for i, r := range t[lo:hi] {
			buf[i] = cache.Access{Addr: r.Addr, Write: r.Write, Stream: r.Stream}
		}
		cache.AccessBatch(c, buf[:n], nil)
	}
	return c.Stats().Sub(before)
}
