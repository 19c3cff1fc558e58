package workloads

import "fmt"

// Transpose computes b = aᵀ, emitting the classic transpose access
// pattern: unit-stride reads of a's columns against stride-LD writes of
// b's rows — one of the two streams is always strided, so a power-of-two
// leading dimension defeats a conventional cache no matter how the loop
// is oriented.
func Transpose(a, b *Matrix, mem Memory) error {
	if a.Rows != b.Cols || a.Cols != b.Rows {
		return fmt.Errorf("workloads: transpose shape mismatch %dx%d → %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	mm := sink(mem)
	defer mm.done()
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			v := a.load(&mm, StreamA, i, j)
			b.store(&mm, StreamB, j, i, v)
		}
	}
	return nil
}

// BlockedTranspose is Transpose with blk×blk tiling, the standard
// cache-blocking of the kernel; tiles make both streams sub-block
// accesses, the §4 shape.
func BlockedTranspose(a, b *Matrix, blk int, mem Memory) error {
	if a.Rows != b.Cols || a.Cols != b.Rows {
		return fmt.Errorf("workloads: transpose shape mismatch %dx%d → %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if blk <= 0 {
		return fmt.Errorf("workloads: blocking factor must be positive, got %d", blk)
	}
	mm := sink(mem)
	defer mm.done()
	for jj := 0; jj < a.Cols; jj += blk {
		jmax := min(jj+blk, a.Cols)
		for ii := 0; ii < a.Rows; ii += blk {
			imax := min(ii+blk, a.Rows)
			for j := jj; j < jmax; j++ {
				for i := ii; i < imax; i++ {
					v := a.load(&mm, StreamA, i, j)
					b.store(&mm, StreamB, j, i, v)
				}
			}
		}
	}
	return nil
}

// Stencil5 applies one Jacobi sweep of the 5-point stencil to the
// interior of src, writing dst: dst(i,j) = (src(i,j) + src(i±1,j) +
// src(i,j±1))/5. Column-major storage makes the (i,j±1) neighbours
// stride-LD accesses — three concurrent vector streams per column sweep,
// the multi-stream pattern of §3.1. Matrices must have equal shape.
func Stencil5(src, dst *Matrix, mem Memory) error {
	if src.Rows != dst.Rows || src.Cols != dst.Cols {
		return fmt.Errorf("workloads: stencil shape mismatch")
	}
	if src.Rows < 3 || src.Cols < 3 {
		return fmt.Errorf("workloads: stencil needs at least a 3x3 matrix")
	}
	mm := sink(mem)
	defer mm.done()
	for j := 1; j < src.Cols-1; j++ {
		for i := 1; i < src.Rows-1; i++ {
			c := src.load(&mm, StreamA, i, j)
			n := src.load(&mm, StreamA, i-1, j)
			s := src.load(&mm, StreamA, i+1, j)
			w := src.load(&mm, StreamB, i, j-1)
			e := src.load(&mm, StreamC, i, j+1)
			dst.store(&mm, StreamC, i, j, (c+n+s+w+e)/5)
		}
	}
	return nil
}
