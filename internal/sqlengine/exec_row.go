package sqlengine

import (
	"fmt"

	"qfusor/internal/data"
)

// execRowPlan runs the plan through the Volcano-style tuple-at-a-time
// executor (SQLite/PostgreSQL model): scan, project, filter, expand and
// LIMIT pull one row at a time, so a UDF they call crosses the boundary
// per tuple and only for the rows a LIMIT takes.
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
	case OpJoin, OpAggregate, OpSort, OpDistinct, OpUnion, OpTableFunc:
		// Blocking (or engine-side) operators are the columnar ones: they
		// drain their children through execPlan, so a UDF below them keeps
		// its per-tuple crossing, then rows stream out.
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

// expandIter expands one input row at a time through expandChunk,
// then streams the rows it yielded.
type expandIter struct {
	eng   *Engine
	plan  *Plan
	child rowIter

	buf *data.Chunk
	pos int
}

func (it *expandIter) Next() ([]data.Value, bool, error) {
	for it.buf == nil || it.pos >= it.buf.NumRows() {
		in, ok, err := it.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		row := data.EmptyChunk(it.plan.Children[0].Schema)
		for i, c := range row.Cols {
			c.AppendValue(in[i])
		}
		if it.buf, err = it.eng.expandChunk(it.plan, row); err != nil {
			return nil, false, err
		}
		it.pos = 0
	}
	it.pos++
	return it.buf.Row(it.pos - 1), true, nil
}

func (it *expandIter) Close() { it.child.Close() }
