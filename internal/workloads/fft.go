package workloads

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"primecache/internal/cache"
)

// StreamFFT is the stream id used by FFT references.
const StreamFFT = 4

// cview is a strided window over a complex array bound to word addresses:
// logical element t lives at data[off + t·stride] and occupies two words
// (re, im) starting at word base + 2·(off + t·stride). Loads and stores
// emit references for the first word of the pair (the paper's one-word
// line makes per-word emission equivalent for interference purposes).
type cview struct {
	data   []complex128
	off    int
	stride int
	base   uint64
	mem    *emitter
}

func (v cview) get(t int) complex128 {
	idx := v.off + t*v.stride
	v.mem.emit(cache.Access{Addr: (v.base + uint64(idx)) * 8, Stream: StreamFFT})
	return v.data[idx]
}

func (v cview) set(t int, x complex128) {
	idx := v.off + t*v.stride
	v.mem.emit(cache.Access{Addr: (v.base + uint64(idx)) * 8, Write: true, Stream: StreamFFT})
	v.data[idx] = x
}

// fftInPlace runs an iterative radix-2 decimation-in-time FFT of length n
// (a power of two) over the view, emitting a reference per element touch.
// inverse selects the conjugate transform (unnormalised).
func fftInPlace(v cview, n int, inverse bool) {
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			a, b := v.get(i), v.get(j)
			v.set(i, b)
			v.set(j, a)
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for span := 1; span < n; span *= 2 {
		w := cmplx.Exp(complex(0, sign*math.Pi/float64(span)))
		for start := 0; start < n; start += 2 * span {
			tw := complex(1, 0)
			for k := 0; k < span; k++ {
				a := v.get(start + k)
				b := v.get(start+k+span) * tw
				v.set(start+k, a+b)
				v.set(start+k+span, a-b)
				tw *= w
			}
		}
	}
}

// FFT2D performs the paper's §4 blocked (four-step) FFT of x, viewed as a
// B2×B1 matrix stored column-major at word address baseWord:
//
//  1. B2 row FFTs of length B1 (stride-B2 accesses — the phase whose
//     conflicts the mapping scheme decides),
//  2. twiddle-factor multiplication,
//  3. B1 column FFTs of length B2 (unit stride).
//
// The result is the DFT of x in transposed order: X[k2 + B1·k1] ends up at
// x[k1 + B2·k2]. Every element reference is emitted into mem.
func FFT2D(x []complex128, b1, b2 int, baseWord uint64, mem Memory) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("workloads: FFT length must be a power of two, got %d", n)
	}
	if b1 <= 0 || b2 <= 0 || b1*b2 != n || b1&(b1-1) != 0 || b2&(b2-1) != 0 {
		return fmt.Errorf("workloads: need power-of-two B1·B2 = N, got %d·%d ≠ %d", b1, b2, n)
	}
	mm := sink(mem)
	defer mm.done()
	// Step 1: row FFTs, stride B2.
	for r := 0; r < b2; r++ {
		fftInPlace(cview{data: x, off: r, stride: b2, base: baseWord, mem: &mm}, b1, false)
	}
	// Step 2: twiddle factors ω_N^{r·k2}.
	for r := 0; r < b2; r++ {
		for k2 := 0; k2 < b1; k2++ {
			idx := r + k2*b2
			mm.emit(cache.Access{Addr: (baseWord + uint64(idx)) * 8, Stream: StreamFFT})
			w := cmplx.Exp(complex(0, -2*math.Pi*float64(r)*float64(k2)/float64(n)))
			x[idx] *= w
			mm.emit(cache.Access{Addr: (baseWord + uint64(idx)) * 8, Write: true, Stream: StreamFFT})
		}
	}
	// Step 3: column FFTs, unit stride.
	for k2 := 0; k2 < b1; k2++ {
		fftInPlace(cview{data: x, off: k2 * b2, stride: 1, base: baseWord, mem: &mm}, b2, false)
	}
	return nil
}

// FFTReference computes the unnormalised DFT of x by recursion, for
// validating FFT2D.
func FFTReference(x []complex128) []complex128 {
	n := len(x)
	if n == 1 {
		return []complex128{x[0]}
	}
	even := make([]complex128, n/2)
	odd := make([]complex128, n/2)
	for i := 0; i < n/2; i++ {
		even[i], odd[i] = x[2*i], x[2*i+1]
	}
	fe, fo := FFTReference(even), FFTReference(odd)
	out := make([]complex128, n)
	for k := 0; k < n/2; k++ {
		tw := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		out[k] = fe[k] + tw*fo[k]
		out[k+n/2] = fe[k] - tw*fo[k]
	}
	return out
}

// IFFTInPlace computes the unnormalised inverse DFT of x in place (unit
// stride), emitting references into mem. Divide by len(x) to invert
// FFTReference.
func IFFTInPlace(x []complex128, baseWord uint64, mem Memory) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("workloads: inverse FFT length must be a power of two, got %d", n)
	}
	mm := sink(mem)
	defer mm.done()
	fftInPlace(cview{data: x, off: 0, stride: 1, base: baseWord, mem: &mm}, n, true)
	return nil
}

// FFTForwardInPlace is the forward counterpart of IFFTInPlace.
func FFTForwardInPlace(x []complex128, baseWord uint64, mem Memory) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("workloads: FFT length must be a power of two, got %d", n)
	}
	mm := sink(mem)
	defer mm.done()
	fftInPlace(cview{data: x, off: 0, stride: 1, base: baseWord, mem: &mm}, n, false)
	return nil
}

// Convolve returns the circular convolution of x and h (equal power-of-two
// lengths) by the FFT method — forward transforms, pointwise product,
// inverse transform, 1/n scaling — tracing all three passes into mem. It
// is the signal-processing application the paper's FFT section motivates.
func Convolve(x, h []complex128, baseX, baseH uint64, mem Memory) ([]complex128, error) {
	n := len(x)
	if n == 0 || n != len(h) {
		return nil, fmt.Errorf("workloads: Convolve needs equal-length inputs, got %d and %d", n, len(h))
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("workloads: Convolve length must be a power of two, got %d", n)
	}
	mm := sink(mem)
	defer mm.done()
	fx := make([]complex128, n)
	fh := make([]complex128, n)
	copy(fx, x)
	copy(fh, h)
	fftInPlace(cview{data: fx, stride: 1, base: baseX, mem: &mm}, n, false)
	fftInPlace(cview{data: fh, stride: 1, base: baseH, mem: &mm}, n, false)
	for i := 0; i < n; i++ {
		mm.emit(cache.Access{Addr: (baseX + uint64(i)) * 8, Stream: StreamFFT})
		mm.emit(cache.Access{Addr: (baseH + uint64(i)) * 8, Stream: StreamFFT})
		fx[i] *= fh[i]
		mm.emit(cache.Access{Addr: (baseX + uint64(i)) * 8, Write: true, Stream: StreamFFT})
	}
	fftInPlace(cview{data: fx, stride: 1, base: baseX, mem: &mm}, n, true)
	scale := complex(1/float64(n), 0)
	for i := range fx {
		fx[i] *= scale
	}
	return fx, nil
}
