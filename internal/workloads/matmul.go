package workloads

import "fmt"

// BlockedMatMul computes c = a·b with b×b blocking (the algorithm of Lam,
// Rothberg & Wolf that the paper's §1 and §3.1 analyse), emitting every
// element reference into mem. The blocking factor blk is the sub-matrix
// edge; the paper's VCM models this workload as B = blk², R = blk.
func BlockedMatMul(a, b, c *Matrix, blk int, mem Memory) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("workloads: matmul shape mismatch %dx%d · %dx%d → %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	if blk <= 0 {
		return fmt.Errorf("workloads: blocking factor must be positive, got %d", blk)
	}
	mm := sink(mem)
	defer mm.done()
	for jj := 0; jj < c.Cols; jj += blk {
		jmax := min(jj+blk, c.Cols)
		for kk := 0; kk < a.Cols; kk += blk {
			kmax := min(kk+blk, a.Cols)
			for ii := 0; ii < c.Rows; ii += blk {
				imax := min(ii+blk, c.Rows)
				for j := jj; j < jmax; j++ {
					for k := kk; k < kmax; k++ {
						// B(k,j) stays in a scalar register across the
						// column-segment sweep: one load.
						bkj := b.load(&mm, StreamB, k, j)
						// c(ii:imax,j) += bkj · a(ii:imax,k): the
						// SAXPY-style double stream (load A segment,
						// load+store C segment).
						for i := ii; i < imax; i++ {
							aik := a.load(&mm, StreamA, i, k)
							cij := c.load(&mm, StreamC, i, j)
							c.store(&mm, StreamC, i, j, cij+bkj*aik)
						}
					}
				}
			}
		}
	}
	return nil
}

// MatMulReference computes c = a·b naively, for validating the blocked
// kernel.
func MatMulReference(a, b, c *Matrix) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("workloads: matmul shape mismatch")
	}
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// GEMV computes y ← A·x + y, the level-2 BLAS kernel: a unit-stride
// column sweep of A per element of x (the SAXPY column formulation),
// emitting all references. Shapes: A is m×n, x has n elements, y has m.
func GEMV(a *Matrix, x, y *Vector, mem Memory) error {
	if len(x.Data) != a.Cols || len(y.Data) != a.Rows {
		return fmt.Errorf("workloads: GEMV shape mismatch %dx%d · %d → %d",
			a.Rows, a.Cols, len(x.Data), len(y.Data))
	}
	mm := sink(mem)
	defer mm.done()
	for j := 0; j < a.Cols; j++ {
		xj := x.load(&mm, StreamB, j)
		for i := 0; i < a.Rows; i++ {
			aij := a.load(&mm, StreamA, i, j)
			yi := y.load(&mm, StreamC, i)
			y.store(&mm, StreamC, i, yi+aij*xj)
		}
	}
	return nil
}
