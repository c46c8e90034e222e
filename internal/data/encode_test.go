package data

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"
)

// goldenChunk covers every value path of the codec: negative and
// extreme ints, float bit patterns, bools, empty and non-ASCII strings,
// NULLs in every kind and a column without a nulls vector.
func goldenChunk() *Chunk {
	ints := NewColumn("i", KindInt)
	for _, v := range []int64{-1, 0, math.MinInt64, math.MaxInt64, 300} {
		ints.AppendInt(v)
	}
	ints.AppendNull()
	floats := NewColumn("f", KindFloat)
	for _, v := range []float64{-0.5, 1e300, math.Inf(-1), 3.25, math.Copysign(0, -1)} {
		floats.AppendFloat(v)
	}
	floats.AppendNull()
	bools := NewColumn("b", KindBool)
	bools.AppendBool(true)
	bools.AppendNull()
	for _, v := range []bool{false, true, false, true} {
		bools.AppendBool(v)
	}
	strs := NewColumn("naïve", KindString)
	for _, v := range []string{"", "héllo", "日本語", "a"} {
		strs.AppendStr(v)
	}
	strs.AppendNull()
	strs.AppendStr("x y")
	plain := NewColumn("k", KindInt)
	for v := int64(1); v <= 6; v++ {
		plain.AppendInt(v)
	}
	return NewChunk(ints, floats, bools, strs, plain)
}

// goldenHex is goldenChunk in the wire format; a change to it breaks
// saved .qft tables and the IPC byte count.
const goldenHex = "" +
	"535546510506016902010000000000010100ffffffffffffffffff01feffffff" +
	"ffffffffff01d8040001660301000000000001000000000000e0bf9c7500883c" +
	"e4377e000000000000f0ff0000000000000a4000000000000000800000000000" +
	"00000001620101000100000000010000010001066e61c3af7665040100000000" +
	"0100000668c3a96c6c6f09e697a5e69cace8aa9e01610003782079016b020002" +
	"0406080a0c"

func TestChunkWireGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenHex)
	if err != nil {
		t.Fatal(err)
	}
	ch := goldenChunk()
	got := AppendChunk(nil, ch)
	if !bytes.Equal(got, want) || chunkSize(ch) != len(want) {
		t.Fatalf("wire bytes changed (sized %d):\n got %x\nwant %x", chunkSize(ch), got, want)
	}
	back, err := ParseChunk(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ch) {
		t.Fatalf("decoded %+v, want %+v", back, ch)
	}
}

// TestDecodeForgedRowCount: a 15-byte message claiming 2^40 rows must
// fail with a typed error before anything is allocated for the claim;
// running out of memory kills the process, past any recover.
func TestDecodeForgedRowCount(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, chunkMagic)
	b = binary.AppendUvarint(b, 1)     // one column
	b = binary.AppendUvarint(b, 1<<40) // rows
	b = appendString(b, "x")
	b = append(b, byte(KindInt), 1) // kind, nulls flag
	if len(b) != 15 {
		t.Fatalf("reproducer is %d bytes, want 15", len(b))
	}
	if _, err := DecodeChunk(bytes.NewReader(b)); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("err = %v, want ErrCorruptChunk", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := AppendChunk(nil, goldenChunk())
	for name, b := range map[string][]byte{
		"empty":     nil,
		"magic":     append([]byte{0, 0, 0, 0}, good[4:]...),
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte(nil), good...), 0),
		"kind":      append(binary.LittleEndian.AppendUint32(nil, chunkMagic), 1, 0, 0, 200, 0),
	} {
		if _, err := ParseChunk(b); !errors.Is(err, ErrCorruptChunk) {
			t.Errorf("%s: err = %v, want ErrCorruptChunk", name, err)
		}
	}
}

// FuzzDecodeChunk feeds the decoder arbitrary bytes: each input decodes
// to a chunk or fails with ErrCorruptChunk, never panics, and a decoded
// chunk re-encodes to bytes that decode and re-encode identically.
func FuzzDecodeChunk(f *testing.F) {
	f.Add(AppendChunk(nil, goldenChunk()))
	f.Add(AppendChunk(nil, NewChunk()))
	f.Add([]byte{0x53, 0x55, 0x46, 0x51, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 'x', byte(KindInt), 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		ch, err := ParseChunk(b)
		if err != nil {
			if !errors.Is(err, ErrCorruptChunk) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		wire := AppendChunk(nil, ch)
		if chunkSize(ch) != len(wire) {
			t.Fatalf("sized %d bytes, encoded %d", chunkSize(ch), len(wire))
		}
		back, err := ParseChunk(wire)
		if err != nil {
			t.Fatalf("re-encoded chunk does not decode: %v", err)
		}
		if again := AppendChunk(nil, back); !bytes.Equal(again, wire) {
			t.Fatalf("round trip changed bytes:\n%x\n%x", wire, again)
		}
	})
}
