package data

import (
	"fmt"
	"slices"
	"strings"
)

// Field describes one column of a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of fields.
type Schema []Field

// IndexOf returns the position of the named field, or -1.
func (s Schema) IndexOf(name string) int {
	for i, f := range s {
		if strings.EqualFold(f.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the field names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, f := range s {
		out[i] = f.Name
	}
	return out
}

// String renders the schema as "(a int, b string)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Column is a typed vector of values: the engine's native, unboxed
// representation. Complex values (lists/dicts) are stored serialized as
// JSON strings in Strs, mirroring how SQL engines store them; the FFI
// layer pays the (de)serialization cost that QFusor's fusion eliminates.
type Column struct {
	Name   string
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Nulls  []bool // nil when the column has no NULLs
}

// NewColumn creates an empty column of the given kind.
func NewColumn(name string, kind Kind) *Column {
	return &Column{Name: name, Kind: kind}
}

// NewColumnCap creates an empty column with capacity hint n.
func NewColumnCap(name string, kind Kind, n int) *Column {
	c := &Column{Name: name, Kind: kind}
	switch kind {
	case KindInt:
		c.Ints = make([]int64, 0, n)
	case KindFloat:
		c.Floats = make([]float64, 0, n)
	case KindBool:
		c.Bools = make([]bool, 0, n)
	default:
		c.Strs = make([]string, 0, n)
	}
	return c
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case KindInt:
		return len(c.Ints)
	case KindFloat:
		return len(c.Floats)
	case KindBool:
		return len(c.Bools)
	default:
		return len(c.Strs)
	}
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool {
	return c.Nulls != nil && c.Nulls[i]
}

func (c *Column) ensureNulls() {
	if c.Nulls == nil {
		c.Nulls = make([]bool, c.Len())
	}
	for len(c.Nulls) < c.Len() {
		c.Nulls = append(c.Nulls, false)
	}
}

// AppendNull appends a NULL row.
func (c *Column) AppendNull() {
	c.ensureNulls()
	switch c.Kind {
	case KindInt:
		c.Ints = append(c.Ints, 0)
	case KindFloat:
		c.Floats = append(c.Floats, 0)
	case KindBool:
		c.Bools = append(c.Bools, false)
	default:
		c.Strs = append(c.Strs, "")
	}
	c.Nulls = append(c.Nulls, true)
}

// AppendInt appends an int row.
func (c *Column) AppendInt(v int64) {
	c.Ints = append(c.Ints, v)
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
}

// AppendFloat appends a float row.
func (c *Column) AppendFloat(v float64) {
	c.Floats = append(c.Floats, v)
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
}

// AppendStr appends a string row.
func (c *Column) AppendStr(v string) {
	c.Strs = append(c.Strs, v)
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
}

// AppendBool appends a bool row.
func (c *Column) AppendBool(v bool) {
	c.Bools = append(c.Bools, v)
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
}

// Get boxes row i into a Value. List/dict columns deserialize from their
// JSON text representation — that cost is the point.
func (c *Column) Get(i int) Value {
	if c.IsNull(i) {
		return Null
	}
	switch c.Kind {
	case KindInt:
		return Int(c.Ints[i])
	case KindFloat:
		return Float(c.Floats[i])
	case KindBool:
		return Bool(c.Bools[i])
	case KindString:
		return Str(c.Strs[i])
	case KindList, KindDict:
		v, err := UnmarshalJSONValue(c.Strs[i])
		if err != nil {
			return Str(c.Strs[i])
		}
		return v
	}
	return Null
}

// RawString returns the stored text of row i without deserialization
// (valid for string/list/dict columns).
func (c *Column) RawString(i int) string { return c.Strs[i] }

// AppendValue unboxes v into the column, serializing complex values.
// A kind mismatch coerces through the value's natural conversion; NULL
// appends NULL.
func (c *Column) AppendValue(v Value) {
	if v.IsNull() {
		c.AppendNull()
		return
	}
	switch c.Kind {
	case KindInt:
		i, _ := v.AsInt()
		c.AppendInt(i)
	case KindFloat:
		f, _ := v.AsFloat()
		c.AppendFloat(f)
	case KindBool:
		c.AppendBool(v.Truthy())
	case KindString:
		c.AppendStr(v.String())
	case KindList, KindDict:
		c.AppendStr(MarshalJSONValue(v))
	default:
		c.AppendStr(v.String())
	}
}

// NewColumnLen creates a column of n zero rows, with an all-false null
// mask when nullable: the exactly sized target of a gather or a concat.
func NewColumnLen(name string, kind Kind, n int, nullable bool) *Column {
	c := &Column{Name: name, Kind: kind}
	switch kind {
	case KindInt:
		c.Ints = make([]int64, n)
	case KindFloat:
		c.Floats = make([]float64, n)
	case KindBool:
		c.Bools = make([]bool, n)
	default:
		c.Strs = make([]string, n)
	}
	if nullable {
		c.Nulls = make([]bool, n)
	}
	return c
}

// Take builds a new column containing the rows at the given indices; an
// index of -1 makes a NULL row (a LEFT join's unmatched side).
func (c *Column) Take(idx []int) *Column {
	out := NewColumnLen(c.Name, c.Kind, len(idx), c.Nulls != nil || slices.Contains(idx, -1))
	c.TakeInto(out, 0, idx)
	return out
}

// TakeInto gathers the rows at idx into rows [at, at+len(idx)) of dst,
// which keeps its rows in the same slice as c: the one gather kernel.
// An index of -1 makes a NULL row, and needs dst to have a null mask.
func (c *Column) TakeInto(dst *Column, at int, idx []int) {
	switch payload(c.Kind) {
	case KindInt:
		gather(dst.Ints[at:], c.Ints, idx)
	case KindFloat:
		gather(dst.Floats[at:], c.Floats, idx)
	case KindBool:
		gather(dst.Bools[at:], c.Bools, idx)
	default:
		gather(dst.Strs[at:], c.Strs, idx)
	}
	if dst.Nulls != nil {
		nulls := dst.Nulls[at : at+len(idx)]
		for k, i := range idx {
			nulls[k] = i < 0 || c.IsNull(i)
		}
	}
}

// CopyInto writes all of c's rows into rows [at, at+c.Len()) of dst,
// which keeps its rows in the same slice as c and needs a null mask when
// c has one.
func (c *Column) CopyInto(dst *Column, at int) {
	n := c.Len()
	switch payload(c.Kind) {
	case KindInt:
		copy(dst.Ints[at:], c.Ints)
	case KindFloat:
		copy(dst.Floats[at:], c.Floats)
	case KindBool:
		copy(dst.Bools[at:], c.Bools)
	default:
		copy(dst.Strs[at:], c.Strs)
	}
	switch {
	case c.Nulls != nil:
		copy(dst.Nulls[at:at+n], c.Nulls)
	case dst.Nulls != nil:
		clear(dst.Nulls[at : at+n])
	}
}

func gather[T any](dst, src []T, idx []int) {
	dst = dst[:len(idx)]
	for k, i := range idx {
		if i >= 0 {
			dst[k] = src[i]
		}
	}
}

// Slice returns a view column over rows [lo, hi). The view shares
// backing storage with c.
func (c *Column) Slice(lo, hi int) *Column {
	out := &Column{Name: c.Name, Kind: c.Kind}
	switch c.Kind {
	case KindInt:
		out.Ints = c.Ints[lo:hi]
	case KindFloat:
		out.Floats = c.Floats[lo:hi]
	case KindBool:
		out.Bools = c.Bools[lo:hi]
	default:
		out.Strs = c.Strs[lo:hi]
	}
	if c.Nulls != nil {
		out.Nulls = c.Nulls[lo:hi]
	}
	return out
}

// AppendColumn appends all rows of other to c. The two must keep their
// rows in the same slice (string, list and dict columns share Strs);
// anything else is a caller's bug and panics rather than append nothing.
func (c *Column) AppendColumn(other *Column) {
	if payload(c.Kind) != payload(other.Kind) {
		panic(fmt.Sprintf("data: cannot append a %s column to a %s column", other.Kind, c.Kind))
	}
	n := other.Len()
	if other.Nulls != nil || c.Nulls != nil {
		c.ensureNulls()
	}
	switch c.Kind {
	case KindInt:
		c.Ints = append(c.Ints, other.Ints...)
	case KindFloat:
		c.Floats = append(c.Floats, other.Floats...)
	case KindBool:
		c.Bools = append(c.Bools, other.Bools...)
	default:
		c.Strs = append(c.Strs, other.Strs...)
	}
	if c.Nulls != nil {
		if other.Nulls != nil {
			c.Nulls = append(c.Nulls, other.Nulls...)
		} else {
			for i := 0; i < n; i++ {
				c.Nulls = append(c.Nulls, false)
			}
		}
	}
}

// Concat joins the parts' rows, in order, into one chunk of the given
// schema, sizing each column once. A part's column must keep its rows in
// the same slice as its field's kind, as AppendColumn requires.
func Concat(schema Schema, parts []*Chunk) *Chunk {
	n := 0
	for _, p := range parts {
		n += p.NumRows()
	}
	out := &Chunk{Cols: make([]*Column, len(schema))}
	for i, f := range schema {
		nullable := false
		for _, p := range parts {
			src := p.Cols[i]
			if payload(src.Kind) != payload(f.Kind) {
				panic(fmt.Sprintf("data: cannot concat a %s column into a %s column", src.Kind, f.Kind))
			}
			nullable = nullable || src.Nulls != nil
		}
		col := NewColumnLen(f.Name, f.Kind, n, nullable)
		at := 0
		for _, p := range parts {
			src := p.Cols[i]
			switch payload(f.Kind) {
			case KindInt:
				copy(col.Ints[at:], src.Ints)
			case KindFloat:
				copy(col.Floats[at:], src.Floats)
			case KindBool:
				copy(col.Bools[at:], src.Bools)
			default:
				copy(col.Strs[at:], src.Strs)
			}
			if src.Nulls != nil {
				copy(col.Nulls[at:], src.Nulls)
			}
			at += src.Len()
		}
		out.Cols[i] = col
	}
	return out
}

// payload names the slice a column of kind k keeps its rows in.
func payload(k Kind) Kind {
	switch k {
	case KindInt, KindFloat, KindBool:
		return k
	}
	return KindString
}

// Chunk is a batch of aligned columns: the unit of vectorized execution.
type Chunk struct {
	Cols []*Column
}

// NewChunk creates a chunk over the given columns.
func NewChunk(cols ...*Column) *Chunk { return &Chunk{Cols: cols} }

// NumRows returns the row count (0 for an empty chunk).
func (ch *Chunk) NumRows() int {
	if len(ch.Cols) == 0 {
		return 0
	}
	return ch.Cols[0].Len()
}

// Schema derives the chunk's schema from its columns.
func (ch *Chunk) Schema() Schema {
	s := make(Schema, len(ch.Cols))
	for i, c := range ch.Cols {
		s[i] = Field{Name: c.Name, Kind: c.Kind}
	}
	return s
}

// Col returns the column with the given name, or nil.
func (ch *Chunk) Col(name string) *Column {
	for _, c := range ch.Cols {
		if strings.EqualFold(c.Name, name) {
			return c
		}
	}
	return nil
}

// Take builds a new chunk containing the rows at the given indices.
func (ch *Chunk) Take(idx []int) *Chunk {
	out := &Chunk{Cols: make([]*Column, len(ch.Cols))}
	for i, c := range ch.Cols {
		out.Cols[i] = c.Take(idx)
	}
	return out
}

// Slice returns a row range view over the chunk.
func (ch *Chunk) Slice(lo, hi int) *Chunk {
	out := &Chunk{Cols: make([]*Column, len(ch.Cols))}
	for i, c := range ch.Cols {
		out.Cols[i] = c.Slice(lo, hi)
	}
	return out
}

// Row boxes row i into a []Value.
func (ch *Chunk) Row(i int) []Value {
	row := make([]Value, len(ch.Cols))
	for j, c := range ch.Cols {
		row[j] = c.Get(i)
	}
	return row
}

// EmptyChunk builds a zero-row chunk with the given schema.
func EmptyChunk(schema Schema) *Chunk {
	cols := make([]*Column, len(schema))
	for i, f := range schema {
		cols[i] = NewColumn(f.Name, f.Kind)
	}
	return &Chunk{Cols: cols}
}

// Table is a named, fully materialized columnar relation.
type Table struct {
	Name   string
	Schema Schema
	Cols   []*Column
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name, Schema: schema, Cols: make([]*Column, len(schema))}
	for i, f := range schema {
		t.Cols[i] = NewColumn(f.Name, f.Kind)
	}
	return t
}

// NumRows returns the table's row count.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Col returns the named column, or nil.
func (t *Table) Col(name string) *Column {
	for _, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return c
		}
	}
	return nil
}

// AppendRow appends one boxed row (len must match the schema).
func (t *Table) AppendRow(row ...Value) error {
	if len(row) != len(t.Cols) {
		return fmt.Errorf("data: row arity %d != schema arity %d for table %s", len(row), len(t.Cols), t.Name)
	}
	for i, v := range row {
		t.Cols[i].AppendValue(v)
	}
	return nil
}

// Chunk returns the whole table as a single chunk (shared storage).
func (t *Table) Chunk() *Chunk { return &Chunk{Cols: t.Cols} }

// FromChunk materializes a chunk into a table.
func FromChunk(name string, ch *Chunk) *Table {
	return &Table{Name: name, Schema: ch.Schema(), Cols: ch.Cols}
}
