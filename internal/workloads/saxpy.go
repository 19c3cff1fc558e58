package workloads

import (
	"fmt"

	"primecache/internal/cache"
)

// SAXPY computes y ← α·x + y over n elements with the given word strides,
// emitting the double-stream reference pattern (§3.1's prototypical vector
// operation: two loads, one buffered store per element). x and y start at
// word addresses baseX and baseY.
func SAXPY(alpha float64, x, y []float64, baseX, baseY uint64, strideX, strideY int64, n int, mem Memory) error {
	need := func(buf []float64, stride int64, count int) int {
		if count == 0 {
			return 0
		}
		return int(stride)*(count-1) + 1
	}
	if strideX <= 0 || strideY <= 0 {
		return fmt.Errorf("workloads: SAXPY strides must be positive, got %d and %d", strideX, strideY)
	}
	if len(x) < need(x, strideX, n) || len(y) < need(y, strideY, n) {
		return fmt.Errorf("workloads: SAXPY buffers too short for n=%d", n)
	}
	mm := sink(mem)
	defer mm.done()
	for i := 0; i < n; i++ {
		ix, iy := int64(i)*strideX, int64(i)*strideY
		mm.emit(cache.Access{Addr: (baseX + uint64(ix)) * 8, Stream: StreamA})
		mm.emit(cache.Access{Addr: (baseY + uint64(iy)) * 8, Stream: StreamB})
		y[iy] = alpha*x[ix] + y[iy]
		mm.emit(cache.Access{Addr: (baseY + uint64(iy)) * 8, Write: true, Stream: StreamB})
	}
	return nil
}
