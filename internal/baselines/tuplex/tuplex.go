// Package tuplex reproduces the Tuplex baseline (§2, §6): an
// end-to-end data analytics framework with LINQ-style operators whose
// Python UDFs are compiled ahead of execution by an LLVM-like IR
// pipeline. Its cost signatures match the paper's observations:
//
//   - compilation latency grows with pipeline complexity (real IR
//     passes over instruction lists derived from the UDF ASTs);
//   - row-major storage and explicit data partitioning add overhead
//     that grows with thread count;
//   - reading starts from CSV text (the read/parse phase the paper's
//     Fig. 5/6f charts separately).
package tuplex

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/pylite"
)

// Context owns the UDF runtime and global settings.
type Context struct {
	rt          *pylite.Interp
	Parallelism int
}

// NewContext creates a Tuplex context; src defines the pipeline's UDFs.
func NewContext(src string, parallelism int) (*Context, error) {
	rt := pylite.NewInterp()
	rt.HotThreshold = 1 // Tuplex compiles everything ahead of time
	if err := rt.Exec(src); err != nil {
		return nil, err
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return &Context{rt: rt, Parallelism: parallelism}, nil
}

// Stats reports the phase breakdown of one job.
type Stats struct {
	ReadTime    time.Duration
	CompileTime time.Duration
	ExecTime    time.Duration
	IRSize      int
	Rows        int
}

// stage is one pipeline operator.
type stage struct {
	kind string // "map", "filter", "select", "aggregate"
	fn   string // UDF name for map/filter
	cols []int  // select columns / aggregate keys
	aggs []AggSpec
}

// AggSpec is an aggregation applied by an aggregate stage.
type AggSpec struct {
	Kind string // "count", "sum", "avg", "min", "max"
	Col  int
}

// Dataset is a lazy pipeline over row-major data.
type Dataset struct {
	ctx    *Context
	rows   [][]data.Value
	stages []stage
	read   time.Duration
}

// FromTable imports engine-style columnar data, paying the row-major
// conversion Tuplex's storage layout requires.
func (c *Context) FromTable(t *data.Table) *Dataset {
	start := time.Now()
	n := t.NumRows()
	rows := make([][]data.Value, n)
	for i := 0; i < n; i++ {
		row := make([]data.Value, len(t.Cols))
		for j, col := range t.Cols {
			row[j] = col.Get(i)
		}
		rows[i] = row
	}
	return &Dataset{ctx: c, rows: rows, read: time.Since(start)}
}

// CSV parses comma-separated text (the Tuplex read phase; quotes with
// doubled-quote escapes).
func (c *Context) CSV(text string, kinds []data.Kind) (*Dataset, error) {
	start := time.Now()
	var rows [][]data.Value
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		fields, err := splitCSVLine(line)
		if err != nil {
			return nil, err
		}
		row := make([]data.Value, len(fields))
		for i, f := range fields {
			k := data.KindString
			if i < len(kinds) {
				k = kinds[i]
			}
			switch k {
			case data.KindInt:
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					row[i] = data.Null
				} else {
					row[i] = data.Int(v)
				}
			case data.KindFloat:
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					row[i] = data.Null
				} else {
					row[i] = data.Float(v)
				}
			default:
				row[i] = data.Str(f)
			}
		}
		rows = append(rows, row)
	}
	return &Dataset{ctx: c, rows: rows, read: time.Since(start)}, nil
}

func splitCSVLine(line string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQ := false
	for i := 0; i < len(line); i++ {
		ch := line[i]
		switch {
		case inQ && ch == '"':
			if i+1 < len(line) && line[i+1] == '"' {
				cur.WriteByte('"')
				i++
			} else {
				inQ = false
			}
		case ch == '"':
			inQ = true
		case ch == ',' && !inQ:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(ch)
		}
	}
	if inQ {
		return nil, fmt.Errorf("tuplex: unterminated quote in CSV line")
	}
	out = append(out, cur.String())
	return out, nil
}

// ToCSV renders a table as CSV text (test/benchmark input preparation).
func ToCSV(t *data.Table) string {
	var b strings.Builder
	n := t.NumRows()
	for i := 0; i < n; i++ {
		for j, c := range t.Cols {
			if j > 0 {
				b.WriteByte(',')
			}
			s := c.Get(i).String()
			if strings.ContainsAny(s, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(s, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(s)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Map appends a map operator calling the named UDF (row -> row).
func (d *Dataset) Map(fn string) *Dataset {
	d.stages = append(d.stages, stage{kind: "map", fn: fn})
	return d
}

// Filter appends a filter operator (row -> bool).
func (d *Dataset) Filter(fn string) *Dataset {
	d.stages = append(d.stages, stage{kind: "filter", fn: fn})
	return d
}

// Select appends a projection to the given column indexes.
func (d *Dataset) Select(cols ...int) *Dataset {
	d.stages = append(d.stages, stage{kind: "select", cols: cols})
	return d
}

// Aggregate appends a terminal group-by + aggregation.
func (d *Dataset) Aggregate(keys []int, aggs ...AggSpec) *Dataset {
	d.stages = append(d.stages, stage{kind: "aggregate", cols: keys, aggs: aggs})
	return d
}

// Collect compiles the pipeline (the LLVM phase) and executes it over
// partitioned row data.
func (d *Dataset) Collect() ([][]data.Value, Stats, error) {
	stats := Stats{ReadTime: d.read}

	// ---- compile phase ----
	cstart := time.Now()
	ir := d.buildIR()
	optimizeIR(ir)
	fns := map[string]data.Value{}
	for _, st := range d.stages {
		if st.fn == "" {
			continue
		}
		fv, ok := d.ctx.rt.Global(st.fn)
		if !ok {
			return nil, stats, fmt.Errorf("tuplex: UDF %s not defined", st.fn)
		}
		// Force ahead-of-time compilation of the UDF.
		if fn, ok := fv.P.(*pylite.FuncValue); ok && fn.Compiled() == nil {
			c, err := pylite.Compile(fn)
			if err == nil {
				fn.SetCompiled(c)
			}
		}
		fns[st.fn] = fv
	}
	stats.CompileTime = time.Since(cstart)
	stats.IRSize = len(ir)

	// ---- execution phase ----
	estart := time.Now()
	parts := partition(d.rows, d.ctx.Parallelism)
	results := make([][][]data.Value, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for pi, part := range parts {
		wg.Add(1)
		// Each partition's thread runs on its own runtime view: a view's
		// call stacks belong to one goroutine.
		go func(pi int, part [][]data.Value, rt *pylite.Interp) {
			defer wg.Done()
			defer d.ctx.rt.MergeStats(rt)
			results[pi], errs[pi] = d.runPartition(rt, part, fns)
		}(pi, part, d.ctx.rt.Worker())
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	var out [][]data.Value
	// Terminal aggregates need a cross-partition merge.
	if len(d.stages) > 0 && d.stages[len(d.stages)-1].kind == "aggregate" {
		out = mergeAggregates(d.stages[len(d.stages)-1], results)
	} else {
		for _, r := range results {
			out = append(out, r...)
		}
	}
	stats.ExecTime = time.Since(estart)
	stats.Rows = len(out)
	return out, stats, nil
}

// partition copies rows into p partitions (Tuplex's explicit
// partitioning overhead — real copies).
func partition(rows [][]data.Value, p int) [][][]data.Value {
	if p < 1 {
		p = 1
	}
	parts := make([][][]data.Value, p)
	per := (len(rows) + p - 1) / p
	for i := 0; i < p; i++ {
		lo := i * per
		hi := lo + per
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		part := make([][]data.Value, hi-lo)
		for j := lo; j < hi; j++ {
			row := make([]data.Value, len(rows[j]))
			copy(row, rows[j])
			part[j-lo] = row
		}
		parts[i] = part
	}
	return parts
}

// runPartition streams a partition through the non-terminal stages and
// performs a partial aggregate for terminal aggregation.
func (d *Dataset) runPartition(rt *pylite.Interp, rows [][]data.Value, fns map[string]data.Value) ([][]data.Value, error) {
	var aggStage *stage
	stages := d.stages
	if len(stages) > 0 && stages[len(stages)-1].kind == "aggregate" {
		aggStage = &stages[len(stages)-1]
		stages = stages[:len(stages)-1]
	}
	out := make([][]data.Value, 0, len(rows))
	for _, row := range rows {
		keep := true
		cur := row
		for _, st := range stages {
			switch st.kind {
			case "map":
				res, err := rt.Call(fns[st.fn], []data.Value{data.NewList(cur)})
				if err != nil {
					return nil, fmt.Errorf("tuplex: %s: %w", st.fn, err)
				}
				if l := res.List(); l != nil {
					cur = l.Items
				} else {
					cur = []data.Value{res}
				}
			case "filter":
				res, err := rt.Call(fns[st.fn], []data.Value{data.NewList(cur)})
				if err != nil {
					return nil, fmt.Errorf("tuplex: %s: %w", st.fn, err)
				}
				if !res.Truthy() {
					keep = false
				}
			case "select":
				sel := make([]data.Value, len(st.cols))
				for i, c := range st.cols {
					sel[i] = cur[c]
				}
				cur = sel
			}
			if !keep {
				break
			}
		}
		if keep {
			out = append(out, cur)
		}
	}
	if aggStage == nil {
		return out, nil
	}
	return partialAggregate(*aggStage, out), nil
}

// partialAggregate folds a partition; merge happens across partitions.
func partialAggregate(st stage, rows [][]data.Value) [][]data.Value {
	groups := map[string][]data.Value{}
	var order []string
	for _, row := range rows {
		key := ""
		for _, k := range st.cols {
			key += row[k].Key() + "|"
		}
		acc, ok := groups[key]
		if !ok {
			acc = make([]data.Value, len(st.cols)+len(st.aggs))
			for i, k := range st.cols {
				acc[i] = row[k]
			}
			for i := range st.aggs {
				acc[len(st.cols)+i] = data.Null
			}
			groups[key] = acc
			order = append(order, key)
		}
		for i, ag := range st.aggs {
			slot := len(st.cols) + i
			acc[slot] = foldAgg(ag, acc[slot], row)
		}
	}
	out := make([][]data.Value, len(order))
	for i, k := range order {
		out[i] = groups[k]
	}
	return out
}

func foldAgg(ag AggSpec, acc data.Value, row []data.Value) data.Value {
	switch ag.Kind {
	case "count":
		if acc.IsNull() {
			return data.Int(1)
		}
		return data.Int(acc.I + 1)
	case "sum", "avg":
		v := row[ag.Col]
		if v.IsNull() {
			return acc
		}
		f, ok := v.AsFloat()
		if !ok {
			return acc
		}
		if acc.IsNull() {
			return data.Float(f)
		}
		return data.Float(acc.F + f)
	case "min", "max":
		v := row[ag.Col]
		if v.IsNull() {
			return acc
		}
		if acc.IsNull() {
			return v
		}
		c, ok := data.Compare(v, acc)
		if !ok {
			return acc
		}
		if (ag.Kind == "min" && c < 0) || (ag.Kind == "max" && c > 0) {
			return v
		}
		return acc
	}
	return acc
}

// mergeAggregates combines per-partition partial aggregates.
func mergeAggregates(st stage, parts [][][]data.Value) [][]data.Value {
	groups := map[string][]data.Value{}
	var order []string
	nk := len(st.cols)
	for _, part := range parts {
		for _, row := range part {
			key := ""
			for i := 0; i < nk; i++ {
				key += row[i].Key() + "|"
			}
			acc, ok := groups[key]
			if !ok {
				cp := make([]data.Value, len(row))
				copy(cp, row)
				groups[key] = cp
				order = append(order, key)
				continue
			}
			for i, ag := range st.aggs {
				slot := nk + i
				acc[slot] = mergeAgg(ag, acc[slot], row[slot])
			}
		}
	}
	out := make([][]data.Value, len(order))
	for i, k := range order {
		out[i] = groups[k]
	}
	return out
}

func mergeAgg(ag AggSpec, a, b data.Value) data.Value {
	if a.IsNull() {
		return b
	}
	if b.IsNull() {
		return a
	}
	switch ag.Kind {
	case "count":
		return data.Int(a.I + b.I)
	case "sum", "avg":
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return data.Float(af + bf)
	case "min", "max":
		c, ok := data.Compare(a, b)
		if !ok {
			return a
		}
		if (ag.Kind == "min" && c <= 0) || (ag.Kind == "max" && c >= 0) {
			return a
		}
		return b
	}
	return a
}
