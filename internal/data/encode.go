package data

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// Binary chunk encoding. Used by two real-cost paths the paper measures:
// the out-of-process UDF transport (PostgreSQL profile: every batch is
// serialized across the process boundary and back) and the disk storage
// mode (cold-cache experiments re-decode tables from files).
//
// A chunk is the magic, the column count, the row count, then per
// column its name, kind, a nulls flag (and one byte per row when set)
// and its values: zigzag varints, little-endian float bits, one byte
// per bool, or length-prefixed strings. Encoding appends to a byte
// slice and decoding walks one, so a message costs its own bytes.

const chunkMagic = uint32(0x51465553) // "QFUS"

// ErrCorruptChunk reports bytes that are not one well-formed chunk: a
// bad magic, a truncated value, a count or length larger than the bytes
// left, an unknown kind, or trailing bytes.
var ErrCorruptChunk = errors.New("data: corrupt chunk")

// AppendChunk appends the wire encoding of ch to b, growing b at most
// once.
func AppendChunk(b []byte, ch *Chunk) []byte {
	b = slices.Grow(b, chunkSize(ch))
	b = binary.LittleEndian.AppendUint32(b, chunkMagic)
	b = binary.AppendUvarint(b, uint64(len(ch.Cols)))
	b = binary.AppendUvarint(b, uint64(ch.NumRows()))
	for _, c := range ch.Cols {
		b = appendString(b, c.Name)
		b = append(b, byte(c.Kind))
		if c.Nulls != nil {
			b = append(b, 1)
			b = appendBools(b, c.Nulls)
		} else {
			b = append(b, 0)
		}
		switch c.Kind {
		case KindInt:
			for _, v := range c.Ints {
				b = binary.AppendVarint(b, v)
			}
		case KindFloat:
			for _, v := range c.Floats {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		case KindBool:
			b = appendBools(b, c.Bools)
		default:
			for _, s := range c.Strs {
				b = appendString(b, s)
			}
		}
	}
	return b
}

// chunkSize is the exact length of ch's encoding.
func chunkSize(ch *Chunk) int {
	n := 4 + uvarintLen(uint64(len(ch.Cols))) + uvarintLen(uint64(ch.NumRows()))
	for _, c := range ch.Cols {
		n += stringSize(c.Name) + 2 + len(c.Nulls)
		switch c.Kind {
		case KindInt:
			for _, v := range c.Ints {
				n += uvarintLen(uint64(v<<1) ^ uint64(v>>63)) // zigzag, as AppendVarint
			}
		case KindFloat:
			n += 8 * len(c.Floats)
		case KindBool:
			n += len(c.Bools)
		default:
			for _, s := range c.Strs {
				n += stringSize(s)
			}
		}
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func stringSize(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// ParseChunk decodes the one chunk b holds. Strings are copied out, so
// the caller may reuse b once it returns.
func ParseChunk(b []byte) (*Chunk, error) {
	r := chunkReader{b: b}
	ch := r.chunk()
	if len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return ch, nil
}

// EncodeChunk writes ch to w in the binary wire format.
func EncodeChunk(w io.Writer, ch *Chunk) error {
	_, err := w.Write(AppendChunk(nil, ch))
	return err
}

// DecodeChunk reads r to its end and decodes the one chunk it holds.
func DecodeChunk(r io.Reader) (*Chunk, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return ParseChunk(b)
}

// EncodeTable writes a table (its name, then its chunk) to w.
func EncodeTable(w io.Writer, t *Table) error {
	_, err := w.Write(AppendChunk(appendString(nil, t.Name), t.Chunk()))
	return err
}

// DecodeTable reads a table written by EncodeTable.
func DecodeTable(r io.Reader) (*Table, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, err
	}
	cr := chunkReader{b: b}
	name := cr.str()
	if cr.err != nil {
		return nil, cr.err
	}
	ch, err := ParseChunk(cr.b)
	if err != nil {
		return nil, err
	}
	return FromChunk(name, ch), nil
}

// readAll reads r to its end, in one allocation when r knows how many
// bytes are left (bytes.Reader, bytes.Buffer, strings.Reader).
func readAll(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		b := make([]byte, l.Len())
		_, err := io.ReadFull(r, b)
		return b, err
	}
	return io.ReadAll(r)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBools(b []byte, vs []bool) []byte {
	for _, v := range vs {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// chunkReader consumes a wire message from the front. Every count is
// checked against the bytes left before anything is allocated for it,
// so a forged row count fails instead of exhausting memory. The first
// failure is kept in err and empties b, so every later read is empty.
type chunkReader struct {
	b   []byte
	err error
}

func (r *chunkReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptChunk}, args...)...)
	}
	r.b = nil
}

func (r *chunkReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count returns n when n items of at least size bytes each can still
// follow, and 0 otherwise.
func (r *chunkReader) count(n uint64, size int) int {
	if n > uint64(len(r.b)/size) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

// next consumes n bytes.
func (r *chunkReader) next(n int) []byte {
	if n > len(r.b) {
		r.fail("truncated")
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *chunkReader) str() string { return string(r.next(r.count(r.uvarint(), 1))) }

func (r *chunkReader) chunk() *Chunk {
	if magic := r.next(4); magic == nil || binary.LittleEndian.Uint32(magic) != chunkMagic {
		r.fail("bad magic")
		return nil
	}
	ncols := r.uvarint()
	nrows := r.uvarint()
	// A column is at least its name length, kind and nulls flag.
	ch := &Chunk{Cols: make([]*Column, r.count(ncols, 3))}
	for i := range ch.Cols {
		ch.Cols[i] = r.column(nrows)
	}
	return ch
}

func (r *chunkReader) column(nrows uint64) *Column {
	c := &Column{Name: r.str()}
	head := r.next(2)
	if head == nil {
		return c
	}
	if c.Kind = Kind(head[0]); c.Kind > KindObject {
		r.fail("unknown kind %d", c.Kind)
	}
	if head[1] == 1 {
		c.Nulls = r.bools(nrows)
	}
	switch c.Kind {
	case KindInt:
		c.Ints = make([]int64, r.count(nrows, 1))
		for i := range c.Ints {
			v, n := binary.Varint(r.b)
			if n <= 0 {
				r.fail("bad varint")
				break
			}
			c.Ints[i], r.b = v, r.b[n:]
		}
	case KindFloat:
		raw := r.next(8 * r.count(nrows, 8))
		c.Floats = make([]float64, len(raw)/8)
		for i := range c.Floats {
			c.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case KindBool:
		c.Bools = r.bools(nrows)
	default:
		c.Strs = make([]string, r.count(nrows, 1))
		for i := range c.Strs {
			c.Strs[i] = r.str()
		}
	}
	return c
}

// bools reads n one-byte flags; 1 is true.
func (r *chunkReader) bools(n uint64) []bool {
	raw := r.next(r.count(n, 1))
	out := make([]bool, len(raw))
	for i, v := range raw {
		out[i] = v == 1
	}
	return out
}
