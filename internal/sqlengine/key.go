package sqlengine

import (
	"math"
	"strconv"

	"qfusor/internal/data"
)

// Hash-key encoding for the blocking operators (group-by, join,
// distinct). Every operator that buckets rows by a compound key appends
// a compact, separator-safe byte encoding into a reusable scratch
// buffer and probes its table with string(buf) — the Go compiler
// recognizes map[string(bytes)] lookups and hashes the bytes without
// allocating, so the hot path allocates only when a key is first
// inserted.
//
// The encoding mirrors data.Value.Key(): type-tagged, length-prefixed
// strings (no separator can be forged by embedded NULs), and
// integral floats normalized to ints so 1 and 1.0 land in one bucket
// across mixed-kind key columns.

// appendColKey appends the key encoding of row i of column c without
// boxing the value: the unboxed storage feeds strconv.Append* directly.
func appendColKey(b []byte, c *data.Column, i int) []byte {
	if c.IsNull(i) {
		return append(b, 'n')
	}
	switch c.Kind {
	case data.KindInt, data.KindBool:
		var x int64
		if c.Kind == data.KindInt {
			x = c.Ints[i]
		} else if c.Bools[i] {
			x = 1
		}
		b = append(b, 'i')
		return strconv.AppendInt(b, x, 10)
	case data.KindFloat:
		f := c.Floats[i]
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			b = append(b, 'i')
			return strconv.AppendInt(b, int64(f), 10)
		}
		b = append(b, 'f')
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	case data.KindString:
		s := c.Strs[i]
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		return append(b, s...)
	default:
		// Lists/dicts deserialize on Get; canonical boxed key keeps
		// dedup semantics identical to the boxed implementation.
		return append(b, c.Get(i).Key()...)
	}
}

// appendRowKey appends the compound key of the given key columns at row
// i (joins probe both sides with the same column-order encoding).
func appendRowKey(b []byte, ch *data.Chunk, keys []int, i int) []byte {
	for _, ci := range keys {
		b = appendColKey(b, ch.Cols[ci], i)
	}
	return b
}
