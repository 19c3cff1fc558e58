// Package workloads implements the blocked numerical kernels the paper's
// introduction motivates — blocked matrix multiply (Lam et al.), blocked LU
// decomposition, the two-dimensional blocked Cooley–Tukey FFT, and SAXPY —
// as real computations that additionally emit their memory reference
// streams into a cache simulator. Each kernel both produces numerically
// verifiable results and exercises exactly the access patterns (unit
// stride, large stride, sub-block, power-of-two FFT strides) whose cache
// behaviour the paper analyses.
package workloads

import (
	"sync"

	"primecache/internal/cache"
)

// Memory receives the kernels' memory references; every cache.Sim
// satisfies it. A kernel hands a Memory that is also a cache.BatchSim
// its references in batches, through AccessBatch, and hands over the
// last batch before it returns; any other Memory gets each Access as
// the kernel makes it. Either way the memory sees the same references
// in the same order, and the kernels ignore the Results. A nil Memory
// runs the kernel without tracing.
type Memory interface {
	Access(cache.Access) cache.Result
}

// emitBatch is how many references an emitter buffers for a
// cache.BatchSim: as many as trace replay streams per batch.
const emitBatch = 256

// emitBufs recycles the emitters' buffers. A buffer handed to
// AccessBatch escapes through the interface, so a local array would be
// a heap allocation on every kernel call.
var emitBufs = sync.Pool{New: func() any { return new([emitBatch]cache.Access) }}

// emitter is what a kernel emits its references into. Untraced, it
// drops them without buffering, so an untraced kernel pays a call and
// two nil checks per reference and nothing else.
type emitter struct {
	batch cache.BatchSim
	buf   *[emitBatch]cache.Access // batch's pending references; nil unless batching
	n     int                      // references pending in buf
	mem   Memory                   // memory that takes one Access at a time; nil when batching or untraced
}

// sink returns the emitter for mem. A kernel that makes one must call
// its done before returning.
func sink(mem Memory) emitter {
	switch m := mem.(type) {
	case nil:
		return emitter{}
	case cache.BatchSim:
		return emitter{batch: m, buf: emitBufs.Get().(*[emitBatch]cache.Access)}
	default:
		return emitter{mem: m}
	}
}

// emit passes a on to the memory, or buffers it for the next batch.
func (e *emitter) emit(a cache.Access) {
	if e.buf == nil {
		if e.mem != nil {
			e.mem.Access(a)
		}
		return
	}
	e.buf[e.n] = a
	if e.n++; e.n == emitBatch {
		e.flush()
	}
}

// flush hands the pending references to the batch memory.
func (e *emitter) flush() {
	e.batch.AccessBatch(e.buf[:e.n], nil)
	e.n = 0
}

// done hands over the pending references and returns the buffer to the
// pool.
func (e *emitter) done() {
	if e.buf == nil {
		return
	}
	if e.n > 0 {
		e.flush()
	}
	emitBufs.Put(e.buf)
	*e = emitter{}
}

// Stream ids used by the kernels, so interference attribution can tell the
// operand matrices apart.
const (
	StreamA = 1
	StreamB = 2
	StreamC = 3
)

// Matrix is a column-major float64 matrix bound to a word address range,
// so element (i, j) has a definite memory address for tracing. LD is the
// leading dimension used for addressing; when it exceeds Rows the matrix
// models a Rows×Cols sub-block of a larger LD-row array (the §4 sub-block
// setting) while still storing only its own elements.
type Matrix struct {
	Rows, Cols int
	// LD is the addressing leading dimension, ≥ Rows.
	LD int
	// BaseWord is the word address of element (0, 0).
	BaseWord uint64
	Data     []float64
}

// NewMatrix allocates a rows×cols zero matrix based at baseWord with
// LD = rows (a self-contained array).
func NewMatrix(rows, cols int, baseWord uint64) *Matrix {
	return NewMatrixLD(rows, cols, rows, baseWord)
}

// NewMatrixLD allocates a rows×cols zero matrix addressed as a sub-block
// of an array with leading dimension ld ≥ rows.
func NewMatrixLD(rows, cols, ld int, baseWord uint64) *Matrix {
	if ld < rows {
		ld = rows
	}
	return &Matrix{Rows: rows, Cols: cols, LD: ld, BaseWord: baseWord, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i+j*m.Rows] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i+j*m.Rows] = v }

// WordAddr returns the word address of element (i, j) under column-major
// storage with leading dimension LD.
func (m *Matrix) WordAddr(i, j int) uint64 { return m.BaseWord + uint64(i+j*m.LD) }

// load emits a read of (i, j) and returns its value.
func (m *Matrix) load(e *emitter, stream, i, j int) float64 {
	e.emit(cache.Access{Addr: m.WordAddr(i, j) * 8, Stream: stream})
	return m.At(i, j)
}

// store emits a write of (i, j).
func (m *Matrix) store(e *emitter, stream, i, j int, v float64) {
	e.emit(cache.Access{Addr: m.WordAddr(i, j) * 8, Write: true, Stream: stream})
	m.Set(i, j, v)
}
