package sqlengine

import (
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"qfusor/internal/data"
)

// The engine's one hash table, under a group-by (and so a DISTINCT and a
// UNION's dedup) and a join's build. Keys stay in their typed columns:
// they are hashed column-wise, one kernel per kind, and the table maps a
// hash to the groups whose keys have it; equality compares the key
// columns at a group's row, so no key is encoded and no lookup allocates.
// NULL equals NULL, NaN equals NaN and −0.0 equals 0.0, as a group-by
// needs; a join never builds or probes a NULL or NaN key. Lists and dicts
// compare, and hash, by their canonical data.Value.Key.

var hashSeed = maphash.MakeSeed()

const (
	nullBits = 0x2545f4914f6cdd1d
	foldMul  = 0x9e3779b97f4a7c15 // odd, so a row's hash so far loses no bit
	// hashBlock is how many rows are hashed at a time, into a buffer on
	// the stack that stays in cache while its rows are looked up.
	hashBlock = 256
)

// hashKeys sets hs[i] to the hash of row lo+i of the key columns: each
// column's bits fold in with a multiply, and the result goes through
// MurmurHash3's finalizer, so the table's slot (low bits) and its tag
// (high bits) both see every bit.
func hashKeys(hs []uint64, cols []*data.Column, lo int) {
	clear(hs)
	for _, c := range cols {
		nulls, n := c.Nulls, len(hs)
		if nulls != nil {
			nulls = nulls[lo : lo+n]
		}
		switch c.Kind {
		case data.KindInt:
			ints := c.Ints[lo : lo+n]
			foldHashes(hs, nulls, func(i int) uint64 { return uint64(ints[i]) })
		case data.KindFloat:
			floats := c.Floats[lo : lo+n]
			foldHashes(hs, nulls, func(i int) uint64 {
				switch f := floats[i]; {
				case f == 0: // −0.0 too
					return 0
				case f != f: // every NaN
					return nullBits + 1
				default:
					return math.Float64bits(f)
				}
			})
		case data.KindBool:
			bools := c.Bools[lo : lo+n]
			foldHashes(hs, nulls, func(i int) uint64 {
				if bools[i] {
					return 1
				}
				return 0
			})
		case data.KindList, data.KindDict:
			foldHashes(hs, nulls, func(i int) uint64 { return maphash.String(hashSeed, c.Get(lo+i).Key()) })
		default:
			strs := c.Strs[lo : lo+n]
			foldHashes(hs, nulls, func(i int) uint64 { return maphash.String(hashSeed, strs[i]) })
		}
	}
	for i, x := range hs {
		x = (x ^ x>>33) * 0xff51afd7ed558ccd
		x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
		hs[i] = x ^ x>>33
	}
}

// foldHashes folds each row's bits, or nullBits for a NULL, into hs.
func foldHashes(hs []uint64, nulls []bool, bits func(i int) uint64) {
	for i := range hs {
		b := uint64(nullBits)
		if nulls == nil || !nulls[i] {
			b = bits(i)
		}
		hs[i] = (hs[i] + b) * foldMul
	}
}

// keysEqual reports whether row i of the key columns a and row j of b
// hold equal keys. Two columns of different kinds hold none.
func keysEqual(a []*data.Column, i int, b []*data.Column, j int) bool {
	for k, x := range a {
		y := b[k]
		if xn, yn := x.IsNull(i), y.IsNull(j); xn || yn || x.Kind != y.Kind {
			if xn && yn {
				continue
			}
			return false
		}
		var eq bool
		switch x.Kind {
		case data.KindInt:
			eq = x.Ints[i] == y.Ints[j]
		case data.KindFloat:
			f, g := x.Floats[i], y.Floats[j]
			eq = f == g || f != f && g != g
		case data.KindBool:
			eq = x.Bools[i] == y.Bools[j]
		case data.KindList, data.KindDict:
			eq = x.Strs[i] == y.Strs[j] || x.Get(i).Key() == y.Get(j).Key()
		default:
			eq = x.Strs[i] == y.Strs[j]
		}
		if !eq {
			return false
		}
	}
	return true
}

// joinKeys returns a join's key columns as = compares them: numeric
// columns of two kinds (an int against a float) as floats.
func joinKeys(l, r *data.Column) (*data.Column, *data.Column) {
	numeric := []data.Kind{data.KindInt, data.KindFloat, data.KindBool}
	if l.Kind == r.Kind || !slices.Contains(numeric, l.Kind) || !slices.Contains(numeric, r.Kind) {
		return l, r
	}
	out := [2]*data.Column{l, r}
	for k, c := range out {
		out[k] = &data.Column{Name: c.Name, Kind: data.KindFloat, Floats: make([]float64, c.Len()), Nulls: c.Nulls}
		for i := range out[k].Floats {
			out[k].Floats[i], _ = c.Get(i).AsFloat()
		}
	}
	return out[0], out[1]
}

// nullOrNaN reports whether row i holds a NULL or NaN in any key
// column: a key that = makes equal to nothing.
func nullOrNaN(cols []*data.Column, i int) bool {
	for _, c := range cols {
		if c.IsNull(i) || c.Kind == data.KindFloat && c.Floats[i] != c.Floats[i] {
			return true
		}
	}
	return false
}

// hashTable maps a key's hash to group ids 0, 1, 2, … in insertion
// order: open addressing with linear probing over a power-of-two slot
// array at most half full. A slot holds the high 32 bits of a hash and
// its group's id + 1 (0 is empty), so a probe reads one word; hashes
// keeps each group's full hash. Its caller keeps each group's key and
// decides equality.
type hashTable struct {
	slots  []uint64
	hashes []uint64 // group id -> its hash
}

// newHashTable returns an empty table sized for groups groups.
func newHashTable(groups int) hashTable {
	size := 1 << bits.Len(uint(max(2*groups, 8)-1))
	return hashTable{slots: make([]uint64, size), hashes: make([]uint64, 0, groups)}
}

// find returns the id of the group of hash h whose key eq accepts, or
// -1.
func (t *hashTable) find(h uint64, eq func(id int) bool) int {
	mask, tag := uint64(len(t.slots)-1), h&^math.MaxUint32
	for s := h & mask; t.slots[s] != 0; s = (s + 1) & mask {
		if slot := t.slots[s]; slot&^math.MaxUint32 == tag && eq(int(uint32(slot))-1) {
			return int(uint32(slot)) - 1
		}
	}
	return -1
}

// group returns the id of the group of hash h whose key eq accepts. When
// there is none it adds one, whose id is the number of groups before it,
// and grows the table to stay half empty.
func (t *hashTable) group(h uint64, eq func(id int) bool) int {
	if id := t.find(h, eq); id >= 0 {
		return id
	}
	if t.hashes = append(t.hashes, h); 2*len(t.hashes) > len(t.slots) {
		t.slots = make([]uint64, 2*len(t.slots))
		for id, g := range t.hashes[:len(t.hashes)-1] {
			t.place(g, id)
		}
	}
	t.place(h, len(t.hashes)-1)
	return len(t.hashes) - 1
}

// place puts group id, of hash h, in h's first empty slot.
func (t *hashTable) place(h uint64, id int) {
	mask := uint64(len(t.slots) - 1)
	s := h & mask
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = h&^math.MaxUint32 | uint64(id+1)
}
