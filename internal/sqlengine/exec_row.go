package sqlengine

import (
	"fmt"

	"qfusor/internal/data"
)

// execRowPlan runs the plan through the Volcano-style tuple-at-a-time
// executor (SQLite/PostgreSQL model): every operator pulls one row at a
// time, every UDF call crosses the boundary per tuple.
func (e *Engine) execRowPlan(p *Plan, ectx *execCtx) (*data.Chunk, error) {
	it, err := e.buildRowIter(p, ectx)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	out := data.EmptyChunk(p.Schema)
	for n := 0; ; n++ {
		// The tuple loop is the row engine's only long-running drain:
		// poll the query context every morsel's worth of rows so
		// cancellation latency matches the columnar executor.
		if n%e.morselSize() == 0 {
			if err := ectx.ctx.Err(); err != nil {
				return nil, err
			}
		}
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		for i, c := range out.Cols {
			if i < len(row) {
				c.AppendValue(row[i])
			} else {
				c.AppendNull()
			}
		}
	}
}

// rowIter is the Volcano iterator protocol.
type rowIter interface {
	Next() ([]data.Value, bool, error)
	Close()
}

func (e *Engine) buildRowIter(p *Plan, ectx *execCtx) (rowIter, error) {
	switch p.Op {
	case OpScan:
		t, ok := e.Catalog.Table(p.Table)
		if !ok {
			if ch, ok := ectx.ctes[lower(p.Table)]; ok {
				return &chunkIter{ch: p.emit(ch)}, nil
			}
			return nil, errNoSuchTable(p.Table)
		}
		return &chunkIter{ch: p.emit(t.Chunk())}, nil
	case OpCTERef:
		ch, ok := ectx.ctes[lower(p.Table)]
		if !ok {
			return nil, fmt.Errorf("sql: CTE %s not materialized", p.Table)
		}
		return &chunkIter{ch: p.emit(ch)}, nil
	case OpProject:
		if len(p.Children) == 0 {
			return &projectIter{eng: e, plan: p, child: &chunkIter{ch: oneRowChunk()}}, nil
		}
		child, err := e.buildRowIter(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		return &projectIter{eng: e, plan: p, child: child}, nil
	case OpFilter:
		child, err := e.buildRowIter(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		return &filterIter{eng: e, pred: p.Exprs[0], child: child}, nil
	case OpJoin:
		return e.buildJoinIter(p, ectx)
	case OpAggregate, OpSort, OpDistinct, OpUnion, OpTableFunc:
		// Blocking (or engine-side) operators are the columnar ones: they
		// drain the child through execPlan, then rows stream out.
		ch, err := e.execColumnar(p, ectx)
		if err != nil {
			return nil, err
		}
		return &chunkIter{ch: ch}, nil
	case OpLimit:
		child, err := e.buildRowIter(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		return &limitIter{child: child, limit: p.LimitN, offset: p.OffsetN}, nil
	case OpExpand:
		child, err := e.buildRowIter(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		return &expandIter{eng: e, plan: p, child: child}, nil
	case OpFused, OpFusedAgg:
		// Fused wrappers are vectorized by construction; tuple engines
		// materialize the child first (the paper's temp-table
		// decomposition on SQLite), then stream the fused output.
		in, err := e.execPlan(p.Children[0], ectx)
		if err != nil {
			return nil, err
		}
		ch, err := e.runFused(p, in, ectx)
		if err != nil {
			return nil, err
		}
		return &chunkIter{ch: ch}, nil
	}
	return nil, fmt.Errorf("sql: row executor: unsupported op %s", p.Op)
}

// chunkIter streams a materialized chunk row by row (boxing per tuple).
type chunkIter struct {
	ch  *data.Chunk
	pos int
}

func (it *chunkIter) Next() ([]data.Value, bool, error) {
	if it.pos >= it.ch.NumRows() {
		return nil, false, nil
	}
	row := it.ch.Row(it.pos)
	it.pos++
	return row, true, nil
}

func (it *chunkIter) Close() {}

type projectIter struct {
	eng   *Engine
	plan  *Plan
	child rowIter
}

func (it *projectIter) Next() ([]data.Value, bool, error) {
	in, ok, err := it.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make([]data.Value, len(it.plan.Exprs))
	for i, ex := range it.plan.Exprs {
		v, err := it.eng.evalRow(ex, in)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

func (it *projectIter) Close() { it.child.Close() }

type filterIter struct {
	eng   *Engine
	pred  SQLExpr
	child rowIter
}

func (it *filterIter) Next() ([]data.Value, bool, error) {
	for {
		in, ok, err := it.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := it.eng.evalRow(it.pred, in)
		if err != nil {
			return nil, false, err
		}
		if v.Truthy() {
			return in, true, nil
		}
	}
}

func (it *filterIter) Close() { it.child.Close() }

type limitIter struct {
	child   rowIter
	limit   int64
	offset  int64
	emitted int64
	skipped int64
}

func (it *limitIter) Next() ([]data.Value, bool, error) {
	for it.skipped < it.offset {
		_, ok, err := it.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.skipped++
	}
	if it.emitted >= it.limit {
		return nil, false, nil
	}
	row, ok, err := it.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	it.emitted++
	return row, true, nil
}

func (it *limitIter) Close() { it.child.Close() }

// expandIter applies an expand UDF per input row, buffering its output.
type expandIter struct {
	eng   *Engine
	plan  *Plan
	child rowIter

	buf [][]data.Value
	pos int
}

func (it *expandIter) Next() ([]data.Value, bool, error) {
	for it.pos >= len(it.buf) {
		in, ok, err := it.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		args := make([]*data.Column, len(it.plan.TFArgs))
		for i, a := range it.plan.TFArgs {
			cr, ok := a.(*ColRef)
			if !ok {
				return nil, false, fmt.Errorf("sql: expand arg must be a column ref")
			}
			kind := data.KindString
			if i < len(it.plan.UDF.InKinds) {
				kind = it.plan.UDF.InKinds[i]
			}
			c := data.NewColumn(fmt.Sprintf("a%d", i), kind)
			c.AppendValue(in[cr.Index])
			args[i] = c
		}
		perRow, err := it.eng.Invoker.CallExpand(it.eng.q.clone(it.plan.UDF), args, 1)
		if err != nil {
			return nil, false, err
		}
		it.buf = it.buf[:0]
		it.pos = 0
		nKeep := len(it.plan.KeepCols)
		for _, row := range perRow[0] {
			out := make([]data.Value, len(it.plan.Schema))
			for k, ci := range it.plan.KeepCols {
				out[k] = in[ci]
			}
			for j := 0; j < len(it.plan.Schema)-nKeep; j++ {
				if j < len(row) {
					out[nKeep+j] = row[j]
				}
			}
			it.buf = append(it.buf, out)
		}
	}
	row := it.buf[it.pos]
	it.pos++
	return row, true, nil
}

func (it *expandIter) Close() { it.child.Close() }

// buildJoinIter builds a hash join (materializing the right side) or a
// nested loop for non-equi predicates.
func (e *Engine) buildJoinIter(p *Plan, ectx *execCtx) (rowIter, error) {
	left, err := e.buildRowIter(p.Children[0], ectx)
	if err != nil {
		return nil, err
	}
	right, err := e.execPlan(p.Children[1], ectx)
	if err != nil {
		left.Close()
		return nil, err
	}
	nl := len(p.Children[0].Schema)
	leftKeys, rightKeys, residual := splitEquiJoin(p.JoinOn, nl)
	ji := &joinIter{eng: e, plan: p, left: left, right: right, nl: nl,
		leftKeys: leftKeys, residual: residual}
	if len(leftKeys) > 0 {
		ji.build = make(map[string][]int)
		var kb []byte
		for j := 0; j < right.NumRows(); j++ {
			kb = appendRowKey(kb[:0], right, rightKeys, j)
			k := string(kb)
			ji.build[k] = append(ji.build[k], j)
		}
	}
	return ji, nil
}

type joinIter struct {
	eng      *Engine
	plan     *Plan
	left     rowIter
	right    *data.Chunk
	nl       int
	leftKeys []int
	residual SQLExpr
	build    map[string][]int

	curLeft  []data.Value
	matches  []int
	matchPos int
	pad      bool // LEFT: curLeft has no surviving match yet
	keyBuf   []byte
	full     []data.Value // the joined row before KeepCols
}

// Next pulls the next joined row: curLeft with each candidate right row
// the residual holds for — the build table's hits, or every right row
// for a nested loop — and for a LEFT join, once the candidates are spent
// without one, curLeft with NULLs.
func (it *joinIter) Next() ([]data.Value, bool, error) {
	for {
		if it.matchPos == len(it.matches) {
			if it.pad {
				it.pad = false
				return it.emit(it.row(-1)), true, nil
			}
			row, ok, err := it.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			it.curLeft, it.matchPos = row, 0
			it.pad = it.plan.JoinKind == "LEFT"
			if it.build != nil {
				it.keyBuf = it.keyBuf[:0]
				for _, ci := range it.leftKeys {
					it.keyBuf = appendValueKey(it.keyBuf, row[ci])
				}
				it.matches = it.build[string(it.keyBuf)]
			} else if it.matches == nil {
				it.matches = make([]int, it.right.NumRows())
				for j := range it.matches {
					it.matches[j] = j
				}
			}
			continue
		}
		out := it.row(it.matches[it.matchPos])
		it.matchPos++
		if it.residual != nil {
			v, err := it.eng.evalRow(it.residual, out)
			if err != nil {
				return nil, false, err
			}
			if !v.Truthy() {
				continue
			}
		}
		it.pad = false
		return it.emit(out), true, nil
	}
}

// row is curLeft joined with right row j; -1 extends it with NULLs. A
// join that emits a subset of its columns (KeepCols) builds the row in
// a buffer of its own, reused row after row.
func (it *joinIter) row(j int) []data.Value {
	if it.full == nil || it.plan.KeepCols == nil {
		it.full = make([]data.Value, it.nl+len(it.right.Cols))
	}
	out := it.full
	copy(out, it.curLeft)
	for c, col := range it.right.Cols {
		if j < 0 {
			out[it.nl+c] = data.Null
		} else {
			out[it.nl+c] = col.Get(j)
		}
	}
	return out
}

// emit is the joined row's output: its KeepCols, or the row itself.
func (it *joinIter) emit(row []data.Value) []data.Value {
	if it.plan.KeepCols == nil {
		return row
	}
	return choose(row, it.plan.KeepCols)
}

func (it *joinIter) Close() { it.left.Close() }
