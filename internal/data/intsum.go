package data

import (
	"errors"
	"math/bits"
)

// ErrIntOverflow reports an integer result outside int64.
var ErrIntOverflow = errors.New("integer out of range")

// IntSum is an exact sum of int64s: a 128-bit two's-complement
// accumulator, so partial sums never wrap and the total does not depend
// on the order of the additions or on how they were split and merged.
type IntSum struct {
	lo uint64
	hi int64
}

// Add adds v.
func (s *IntSum) Add(v int64) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, uint64(v), 0)
	s.hi += int64(carry) + v>>63 // v>>63 is v's high word: 0 or -1
}

// Merge adds another partial sum.
func (s *IntSum) Merge(o IntSum) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, o.lo, 0)
	s.hi += o.hi + int64(carry)
}

// Int returns the sum, or ErrIntOverflow when it does not fit in int64.
func (s IntSum) Int() (int64, error) {
	if v := int64(s.lo); s.hi == v>>63 {
		return v, nil
	}
	return 0, ErrIntOverflow
}

// Float returns the sum rounded to a float64.
func (s IntSum) Float() float64 {
	if v, err := s.Int(); err == nil {
		return float64(v)
	}
	return float64(s.hi)*0x1p64 + float64(s.lo)
}
