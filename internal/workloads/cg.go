package workloads

import (
	"fmt"
	"math"

	"primecache/internal/cache"
)

// Vector is a float64 vector bound to a word address range, the 1-D
// analogue of Matrix.
type Vector struct {
	// BaseWord is the word address of element 0.
	BaseWord uint64
	Data     []float64
}

// NewVector allocates an n-element zero vector based at baseWord.
func NewVector(n int, baseWord uint64) *Vector {
	return &Vector{BaseWord: baseWord, Data: make([]float64, n)}
}

func (v *Vector) load(e *emitter, stream, i int) float64 {
	e.emit(cache.Access{Addr: (v.BaseWord + uint64(i)) * 8, Stream: stream})
	return v.Data[i]
}

func (v *Vector) store(e *emitter, stream, i int, x float64) {
	e.emit(cache.Access{Addr: (v.BaseWord + uint64(i)) * 8, Write: true, Stream: stream})
	v.Data[i] = x
}

// CGResult reports a conjugate-gradient solve.
type CGResult struct {
	// Iterations actually performed.
	Iterations int
	// Residual is the final ‖b − A·x‖₂.
	Residual float64
	// Converged reports whether the residual dropped below the
	// tolerance.
	Converged bool
}

// ConjugateGradient solves A·x = b for symmetric positive-definite A,
// emitting every reference of its matvec / daxpy / dot steps into mem —
// the full memory life of an iterative solver, mixing unit-stride vector
// sweeps with column sweeps of A. x holds the initial guess and receives
// the solution.
func ConjugateGradient(a *Matrix, b, x *Vector, maxIter int, tol float64, mem Memory) (CGResult, error) {
	n := a.Rows
	if a.Cols != n {
		return CGResult{}, fmt.Errorf("workloads: CG needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b.Data) != n || len(x.Data) != n {
		return CGResult{}, fmt.Errorf("workloads: CG vector lengths %d,%d do not match n=%d", len(b.Data), len(x.Data), n)
	}
	if maxIter <= 0 || tol <= 0 {
		return CGResult{}, fmt.Errorf("workloads: CG needs positive maxIter and tol")
	}
	mm := sink(mem)
	defer mm.done()

	// Work vectors live after x in the address space so their streams
	// are distinguishable.
	r := NewVector(n, x.BaseWord+uint64(n)+64)
	p := NewVector(n, r.BaseWord+uint64(n)+64)
	ap := NewVector(n, p.BaseWord+uint64(n)+64)

	matvec := func(dst *Vector, src *Vector) {
		for i := 0; i < n; i++ {
			dst.Data[i] = 0
		}
		// Column-major SAXPY formulation: dst += A(:,j)·src[j].
		for j := 0; j < n; j++ {
			sj := src.load(&mm, StreamB, j)
			for i := 0; i < n; i++ {
				aij := a.load(&mm, StreamA, i, j)
				dst.store(&mm, StreamC, i, dst.Data[i]+aij*sj)
			}
		}
	}
	dot := func(u, v *Vector, su, sv int) float64 {
		var s float64
		for i := 0; i < n; i++ {
			s += u.load(&mm, su, i) * v.load(&mm, sv, i)
		}
		return s
	}

	// r = b − A·x; p = r.
	matvec(ap, x)
	for i := 0; i < n; i++ {
		ri := b.load(&mm, StreamB, i) - ap.load(&mm, StreamC, i)
		r.store(&mm, StreamA, i, ri)
		p.store(&mm, StreamB, i, ri)
	}
	rr := dot(r, r, StreamA, StreamA)

	res := CGResult{}
	for k := 0; k < maxIter; k++ {
		res.Iterations = k + 1
		matvec(ap, p)
		pap := dot(p, ap, StreamB, StreamC)
		if pap == 0 {
			break
		}
		alpha := rr / pap
		for i := 0; i < n; i++ {
			x.store(&mm, StreamB, i, x.load(&mm, StreamB, i)+alpha*p.load(&mm, StreamB, i))
			r.store(&mm, StreamA, i, r.load(&mm, StreamA, i)-alpha*ap.load(&mm, StreamC, i))
		}
		rrNew := dot(r, r, StreamA, StreamA)
		if math.Sqrt(rrNew) < tol {
			res.Residual = math.Sqrt(rrNew)
			res.Converged = true
			return res, nil
		}
		beta := rrNew / rr
		for i := 0; i < n; i++ {
			p.store(&mm, StreamB, i, r.load(&mm, StreamA, i)+beta*p.load(&mm, StreamB, i))
		}
		rr = rrNew
	}
	res.Residual = math.Sqrt(rr)
	res.Converged = res.Residual < tol
	return res, nil
}
