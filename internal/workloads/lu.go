package workloads

import (
	"fmt"
	"math"
)

// BlockedLU factors a in place into L·U (unit-diagonal L below the
// diagonal, U on and above) using right-looking blocked elimination with
// block size blk and no pivoting — Armstrong's blocked LU, the paper's
// example of a kernel with blocking factor b² and reuse factor 3b/2. The
// matrix must be square and (for stability, since there is no pivoting)
// should be diagonally dominant. Every element reference is emitted into
// mem.
func BlockedLU(a *Matrix, blk int, mem Memory) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("workloads: LU needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if blk <= 0 {
		return fmt.Errorf("workloads: blocking factor must be positive, got %d", blk)
	}
	mm := sink(mem)
	defer mm.done()
	n := a.Rows
	for kk := 0; kk < n; kk += blk {
		kmax := min(kk+blk, n)
		// Factor the diagonal panel A[kk:n, kk:kmax] unblocked.
		for k := kk; k < kmax; k++ {
			piv := a.load(&mm, StreamA, k, k)
			if math.Abs(piv) < 1e-300 {
				return fmt.Errorf("workloads: zero pivot at %d (LU without pivoting)", k)
			}
			for i := k + 1; i < n; i++ {
				lik := a.load(&mm, StreamA, i, k) / piv
				a.store(&mm, StreamA, i, k, lik)
			}
			for j := k + 1; j < kmax; j++ {
				akj := a.load(&mm, StreamA, k, j)
				for i := k + 1; i < n; i++ {
					aij := a.load(&mm, StreamA, i, j)
					lik := a.load(&mm, StreamA, i, k)
					a.store(&mm, StreamA, i, j, aij-lik*akj)
				}
			}
		}
		// Update the trailing row panel: U[kk:kmax, kmax:n] by forward
		// substitution with the unit-lower block L[kk:kmax, kk:kmax].
		for j := kmax; j < n; j++ {
			for k := kk; k < kmax; k++ {
				akj := a.load(&mm, StreamB, k, j)
				for i := k + 1; i < kmax; i++ {
					aij := a.load(&mm, StreamB, i, j)
					lik := a.load(&mm, StreamA, i, k)
					a.store(&mm, StreamB, i, j, aij-lik*akj)
				}
			}
		}
		// Rank-blk update of the trailing sub-matrix.
		for j := kmax; j < n; j++ {
			for k := kk; k < kmax; k++ {
				ukj := a.load(&mm, StreamB, k, j)
				for i := kmax; i < n; i++ {
					aij := a.load(&mm, StreamC, i, j)
					lik := a.load(&mm, StreamA, i, k)
					a.store(&mm, StreamC, i, j, aij-lik*ukj)
				}
			}
		}
	}
	return nil
}

// LUReconstruct multiplies the packed L·U factors back into a fresh
// matrix, for validating BlockedLU.
func LUReconstruct(lu *Matrix) *Matrix {
	n := lu.Rows
	out := NewMatrix(n, n, lu.BaseWord)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k <= min(i, j); k++ {
				var l float64
				if k == i {
					l = 1
				} else {
					l = lu.At(i, k)
				}
				s += l * lu.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}
