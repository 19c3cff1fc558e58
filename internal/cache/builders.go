package cache

import "fmt"

// Each constructor here checks its arguments, builds a mapper and calls
// New. The checks that are not the mapper's own live in functions of
// their own (setAssocMapper, primeAssocMapper, and New's checkShape),
// which Spec.Validate calls too, so validating a Spec runs the same
// rules as building it while allocating nothing.

// NewDirect returns a direct-mapped cache of lines lines (a power of two)
// with the paper's default 8-byte lines.
func NewDirect(lines int) (*Cache, error) {
	m, err := NewDirectMapper(lines)
	if err != nil {
		return nil, err
	}
	return New(Config{Mapper: m, Ways: 1})
}

// NewPrime returns a prime-mapped cache with 2^c − 1 lines (c a Mersenne
// prime exponent) and 8-byte lines — the paper's proposed design.
func NewPrime(c uint) (*Cache, error) {
	m, err := NewPrimeMapper(c)
	if err != nil {
		return nil, err
	}
	return New(Config{Mapper: m, Ways: 1})
}

// NewSetAssoc returns an n-way set-associative cache of lines total lines
// with bit-selection indexing and the given replacement policy. lines/ways
// must be a power of two.
func NewSetAssoc(lines, ways int, policy Policy) (*Cache, error) {
	m, err := setAssocMapper(lines, ways)
	if err != nil {
		return nil, err
	}
	return New(Config{Mapper: m, Ways: ways, Policy: policy})
}

// setAssocMapper checks NewSetAssoc's geometry and returns its mapper.
func setAssocMapper(lines, ways int) (DirectMapper, error) {
	if ways <= 0 || lines%ways != 0 {
		return DirectMapper{}, fmt.Errorf("cache: %d lines not divisible into %d ways", lines, ways)
	}
	return NewDirectMapper(lines / ways)
}

// NewFullyAssoc returns a fully-associative LRU cache of lines lines.
func NewFullyAssoc(lines int) (*Cache, error) {
	m, err := NewModuloMapper(1)
	if err != nil {
		return nil, err
	}
	return New(Config{Mapper: m, Ways: lines, Policy: LRU})
}

// NewPrimeAssoc returns a set-associative prime-mapped cache: 2^c − 1
// sets of ways ways with LRU replacement — a natural extension beyond the
// paper, combining the prime modulus (kills strided self-interference)
// with associativity (kills small-set ping-pong that even a prime modulus
// cannot: two lines congruent mod 2^c − 1 still collide direct-mapped).
func NewPrimeAssoc(c uint, ways int) (*Cache, error) {
	m, err := primeAssocMapper(c, ways)
	if err != nil {
		return nil, err
	}
	return New(Config{Mapper: m, Ways: ways, Policy: LRU})
}

// primeAssocMapper checks NewPrimeAssoc's arguments and returns its
// mapper.
func primeAssocMapper(c uint, ways int) (PrimeMapper, error) {
	m, err := NewPrimeMapper(c)
	if err != nil {
		return PrimeMapper{}, err
	}
	if ways < 1 {
		return PrimeMapper{}, fmt.Errorf("cache: ways must be ≥ 1, got %d", ways)
	}
	return m, nil
}
