package core

import (
	"fmt"

	"qfusor/internal/sqlengine"
)

// ExecDML runs a DDL/DML statement through the QFusor pipeline: UDF
// pipelines in UPDATE SET expressions and WHERE predicates are fused
// into wrapper UDFs before execution (§4.2.5 — the capability the paper
// notes is missing from the SOTA comparators).
func (qf *QFusor) ExecDML(eng *sqlengine.Engine, sql string) error {
	st, err := sqlengine.ParseSQL(sql)
	if err != nil {
		return err
	}
	up, ok := st.(*sqlengine.UpdateStmt)
	if !ok || !qf.Opts.Fusion {
		return eng.Exec(sql)
	}
	rep := &Report{}
	for i, e := range up.Exprs {
		ne, err := qf.fuseUnboundExpr(eng, up.Table, e, rep)
		if err != nil {
			return err
		}
		up.Exprs[i] = ne
	}
	if up.Where != nil {
		nw, err := qf.fuseUnboundExpr(eng, up.Table, up.Where, rep)
		if err != nil {
			return err
		}
		up.Where = nw
	}
	qf.setReport(*rep)
	return eng.ExecUpdate(up)
}

// fuseUnboundExpr binds an expression against the target table as the
// UPDATE will — implicit casts included, so a fused chain computes the
// kinds the native UPDATE does — and applies scalar-chain fusion.
// ExecUpdate binds the result again, a no-op on a bound expression.
func (qf *QFusor) fuseUnboundExpr(eng *sqlengine.Engine, table string, e sqlengine.SQLExpr, rep *Report) (sqlengine.SQLExpr, error) {
	t, ok := eng.Catalog.Table(table)
	if !ok {
		return nil, fmt.Errorf("core: no such table %s", table)
	}
	bound, err := sqlengine.BindExpr(eng.Catalog, t, e)
	if err != nil {
		return nil, err
	}
	return qf.fuseExprChains(bound, t.Schema, rep)
}
