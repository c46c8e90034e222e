package data

import (
	"errors"
	"math"
	"testing"
)

// TestIntSumExactAndOrderFree: an IntSum's total does not depend on
// the order of its additions or on a split into merged partials, even
// where an int64 running sum would wrap on the way, and a total outside
// int64 is an error.
func TestIntSumExactAndOrderFree(t *testing.T) {
	cases := []struct {
		xs   []int64
		want int64
		ovf  bool
	}{
		{[]int64{math.MaxInt64, 1, -1}, math.MaxInt64, false},
		{[]int64{math.MinInt64, -1, 1}, math.MinInt64, false},
		{[]int64{math.MaxInt64, math.MaxInt64, math.MinInt64, math.MinInt64, 5}, 3, false},
		{[]int64{1 << 53, 1, 1, 1, 1}, 1<<53 + 4, false},
		{[]int64{math.MaxInt64, 1}, 0, true},
		{[]int64{math.MinInt64, -1}, 0, true},
		{[]int64{math.MinInt64, math.MinInt64, -1}, 0, true},
	}
	for _, c := range cases {
		for rot := range c.xs {
			for split := 0; split <= len(c.xs); split++ {
				var a, b IntSum
				for i := range c.xs {
					x := c.xs[(i+rot)%len(c.xs)]
					if i < split {
						a.Add(x)
					} else {
						b.Add(x)
					}
				}
				a.Merge(b)
				got, err := a.Int()
				if c.ovf != errors.Is(err, ErrIntOverflow) || !c.ovf && got != c.want {
					t.Fatalf("%v rotated %d split %d: %d, %v; want %d (overflow %v)", c.xs, rot, split, got, err, c.want, c.ovf)
				}
			}
		}
	}
}
