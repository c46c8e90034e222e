package sqlengine

import (
	"context"
	"fmt"

	"qfusor/internal/data"
)

// Exec runs a DDL or DML statement (CREATE TABLE, INSERT, UPDATE,
// DELETE). UDFs are fully supported in DML expressions and predicates —
// the capability the paper notes is missing from SOTA comparators
// (§4.2.5); QFusor's fusion applies to these plans too. QueryCtx runs
// the same statements under its caller's context.
func (e *Engine) Exec(sql string) error {
	st, err := ParseSQL(sql)
	if err != nil {
		return err
	}
	return e.execStmt(context.Background(), st)
}

// execStmt runs a parsed DDL or DML statement under ctx: like a query,
// it executes its UDFs on its own clones (see statement), so the
// caller's deadline or cancel, the step budget and the ledger on ctx
// all reach a UDF inside INSERT … SELECT, UPDATE and DELETE.
func (e *Engine) execStmt(ctx context.Context, st Statement) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	switch s := st.(type) {
	case *CreateTableStmt:
		e.Catalog.PutTable(data.NewTable(s.Name, s.Schema))
		return nil
	case *InsertStmt:
		return e.execInsert(ctx, s)
	case *UpdateStmt:
		return e.execUpdate(ctx, s)
	case *DeleteStmt:
		return e.execDelete(ctx, s)
	case *SelectStmt:
		_, err := e.PlanQuery(s)
		if err != nil {
			return err
		}
		return fmt.Errorf("sql: use Query for SELECT statements")
	}
	return fmt.Errorf("sql: unsupported statement %T", st)
}

func (e *Engine) execInsert(ctx context.Context, s *InsertStmt) error {
	e.Catalog.dml.Lock()
	defer e.Catalog.dml.Unlock()
	t, ok := e.Catalog.Table(s.Table)
	if !ok {
		return errNoSuchTable(s.Table)
	}
	// INSERT appends into the table's column storage in place — the
	// catalog never sees a PutTable — so the epoch bump that invalidates
	// cached plan decisions (row estimates, fusion choices) is explicit.
	defer e.Catalog.BumpEpoch()
	if s.Select != nil {
		q, err := e.PlanQuery(s.Select)
		if err != nil {
			return err
		}
		res, err := e.ExecuteCtx(ctx, q)
		if err != nil {
			return err
		}
		if len(res.Cols) != len(t.Cols) {
			return fmt.Errorf("sql: INSERT arity mismatch: %d vs %d", len(res.Cols), len(t.Cols))
		}
		n := res.NumRows()
		for i := 0; i < n; i++ {
			for c := range t.Cols {
				t.Cols[c].AppendValue(res.Cols[c].Get(i))
			}
		}
		return nil
	}
	_, err := e.statement(ctx, nil, func(qe *Engine) error {
		return qe.insertValues(t, s.Rows)
	})
	return err
}

// insertValues evaluates INSERT … VALUES rows and appends them to t.
func (e *Engine) insertValues(t *data.Table, rows [][]SQLExpr) error {
	for _, row := range rows {
		if len(row) != len(t.Cols) {
			return fmt.Errorf("sql: INSERT arity mismatch: %d values for %d columns", len(row), len(t.Cols))
		}
		vals := make([]data.Value, len(row))
		for i, ex := range row {
			v, err := e.evalRow(ex, nil)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := t.AppendRow(vals...); err != nil {
			return err
		}
	}
	return nil
}

// ExecUpdate applies an UPDATE (exposed separately so QFusor can rewrite
// the SET/WHERE expressions before execution).
func (e *Engine) ExecUpdate(s *UpdateStmt) error {
	return e.execUpdate(context.Background(), s)
}

func (e *Engine) execUpdate(ctx context.Context, s *UpdateStmt) error {
	e.Catalog.dml.Lock()
	defer e.Catalog.dml.Unlock()
	t, ok := e.Catalog.Table(s.Table)
	if !ok {
		return errNoSuchTable(s.Table)
	}
	// UPDATE rewrites column cells in place (no PutTable): bump the
	// epoch explicitly so cached plan decisions over this table retire.
	defer e.Catalog.BumpEpoch()
	scan := &Plan{Op: OpScan, Table: t.Name, Schema: t.Schema,
		Quals: qualsFor(t.Name, len(t.Schema)), EstRows: float64(t.NumRows())}
	pl := &planner{cat: e.Catalog, ctes: map[string]*Plan{}}

	colIdx := make([]int, len(s.Cols))
	exprs := make([]SQLExpr, len(s.Exprs))
	for i, col := range s.Cols {
		idx := t.Schema.IndexOf(col)
		if idx < 0 {
			return fmt.Errorf("sql: no such column %s in %s", col, s.Table)
		}
		colIdx[i] = idx
		ex, _, err := pl.bindExpr(s.Exprs[i], scan)
		if err != nil {
			return err
		}
		exprs[i] = ex
	}
	var where SQLExpr
	if s.Where != nil {
		var err error
		if where, _, err = pl.bindExpr(s.Where, scan); err != nil {
			return err
		}
	}

	_, err := e.statement(ctx, nil, func(qe *Engine) error {
		return qe.updateRows(t, colIdx, exprs, where)
	})
	return err
}

// updateRows evaluates a bound UPDATE over t and writes the new cells
// back in place.
func (e *Engine) updateRows(t *data.Table, colIdx []int, exprs []SQLExpr, where SQLExpr) error {
	ch := t.Chunk()
	idx := make([]int, ch.NumRows())
	for i := range idx {
		idx[i] = i
	}
	if where != nil {
		keep, err := e.evalVec(where, ch, data.KindBool)
		if err != nil {
			return err
		}
		idx = trueRows(keep, 0)
	}
	if len(idx) == 0 {
		return nil
	}
	// Compute new values over the affected rows, then write back.
	want := make([]data.Kind, len(colIdx))
	for c, ci := range colIdx {
		want[c] = t.Cols[ci].Kind
	}
	sub := ch.Take(idx)
	prog, err := e.compile(sub, exprs, want)
	if err != nil {
		return err
	}
	news, err := prog.run(sub)
	if err != nil {
		return err
	}
	for c, vals := range news {
		col := t.Cols[colIdx[c]]
		for m, i := range idx {
			switch col.Kind {
			case data.KindInt:
				col.Ints[i] = vals.Ints[m]
			case data.KindFloat:
				col.Floats[i] = vals.Floats[m]
			case data.KindBool:
				col.Bools[i] = vals.Bools[m]
			default:
				col.Strs[i] = vals.Strs[m]
			}
			if col.Nulls == nil && vals.IsNull(m) {
				col.Nulls = make([]bool, col.Len())
			}
			if col.Nulls != nil {
				col.Nulls[i] = vals.IsNull(m)
			}
		}
	}
	return nil
}

func (e *Engine) execDelete(ctx context.Context, s *DeleteStmt) error {
	e.Catalog.dml.Lock()
	defer e.Catalog.dml.Unlock()
	t, ok := e.Catalog.Table(s.Table)
	if !ok {
		return errNoSuchTable(s.Table)
	}
	if s.Where == nil {
		e.Catalog.PutTable(data.NewTable(t.Name, t.Schema))
		return nil
	}
	scan := &Plan{Op: OpScan, Table: t.Name, Schema: t.Schema,
		Quals: qualsFor(t.Name, len(t.Schema))}
	pl := &planner{cat: e.Catalog, ctes: map[string]*Plan{}}
	where, _, err := pl.bindExpr(s.Where, scan)
	if err != nil {
		return err
	}
	ch := t.Chunk()
	// Rows stay unless the predicate holds: NOT maps NULL to true too.
	var keep *data.Column
	_, err = e.statement(ctx, nil, func(qe *Engine) (err error) {
		keep, err = qe.evalVec(&UnaryExpr{Op: "NOT", E: where}, ch, data.KindBool)
		return err
	})
	if err != nil {
		return err
	}
	idx := trueRows(keep, 0)
	nt := data.NewTable(t.Name, t.Schema)
	nt.Cols = ch.Take(idx).Cols
	for i, c := range nt.Cols {
		c.Name = t.Schema[i].Name
	}
	e.Catalog.PutTable(nt)
	return nil
}
