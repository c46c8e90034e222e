package core

import "sync/atomic"

// CostModel implements §5.2: hybrid cost-based + rule-based decisions.
// UDF costs come from the stateful statistics dictionary (ffi.Stats,
// learned across executions); wrapper costs are concrete and measured;
// relational costs use engine-style per-tuple constants. All units are
// nanoseconds per tuple.
type CostModel struct {
	// WIn / WOut: wrapper cost per tuple for converting one value into /
	// out of the UDF environment (Table 1's W_in, W_out).
	WIn  float64
	WOut float64
	// CRel: per-tuple engine-side cost of relational operators (C_r).
	CRel map[OpKind]float64
	// UDFFactor: relational operators executed inside the UDF
	// environment cost CRel * UDFFactor (C_ru).
	UDFFactor float64
	// UDFDefault: per-row cost assumed for a UDF with no statistics and
	// no developer-supplied estimate (the cold-start case).
	UDFDefault float64
	// CrossCost: fixed cost of one engine↔UDF boundary crossing
	// (per batch for vectorized transports, amortized here per tuple).
	CrossCost float64
	// ScaleEff: marginal efficiency of each morsel partition beyond the
	// first (1.0 = perfect scaling; merge overhead and skew keep it
	// below that in practice).
	ScaleEff float64
	// MorselRows: rows per morsel in the executor — inputs smaller than
	// one morsel never partition, so their cost is unchanged.
	MorselRows float64

	// workers is the executor parallelism last reported via SetWorkers
	// (0 until a query runs, which keeps costs identical to the serial
	// model — important for tests and cold estimates). Accessed
	// atomically (plain int64 keeps the struct copyable for tests).
	workers int64
}

// SetWorkers records the executor's worker count so per-row costs are
// divided by the expected morsel speedup for inputs large enough to
// partition.
func (cm *CostModel) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	atomic.StoreInt64(&cm.workers, int64(n))
}

// speedup returns the modeled parallel speedup for an operator over the
// given row count: partitions = min(workers, rows/MorselRows), each
// extra partition contributing ScaleEff of a worker.
func (cm *CostModel) speedup(rows float64) float64 {
	return 1 + float64(cm.partitions(rows)-1)*cm.ScaleEff
}

// partitions returns how many morsel partitions the executor would use
// for the given row count under the reported worker budget.
func (cm *CostModel) partitions(rows float64) int64 {
	w := atomic.LoadInt64(&cm.workers)
	if w <= 1 || cm.ScaleEff <= 0 || cm.MorselRows <= 0 {
		return 1
	}
	parts := int64(rows / cm.MorselRows)
	if parts < 1 {
		parts = 1
	}
	if parts > w {
		parts = w
	}
	return parts
}

// DefaultCostModel returns constants calibrated against the ffi
// transports on this substrate.
func DefaultCostModel() *CostModel {
	return &CostModel{
		WIn:  60,
		WOut: 80,
		CRel: map[OpKind]float64{
			KRelExpr:      25,
			KRelFilter:    15,
			KRelAggNative: 20,
			KRelGroupBy:   60,
		},
		UDFFactor:  3,
		UDFDefault: 800,
		CrossCost:  200,
		ScaleEff:   0.7,
		MorselRows: 2048,
	}
}

// udfRowCost returns the learned (or declared, or default) per-row
// processing cost of a UDF node.
func (cm *CostModel) udfRowCost(n *DFGNode) float64 {
	if n.UDF == nil {
		return cm.UDFDefault
	}
	if n.UDF.Stats.InRows.Load() > 0 {
		c := n.UDF.Stats.NanosPerRow() - n.UDF.Stats.WrapNanosPerRow()
		if c > 0 {
			return c
		}
	}
	if n.UDF.EstCost > 0 {
		return n.UDF.EstCost
	}
	return cm.UDFDefault
}

// relRowCost returns the engine-side per-tuple cost of a relational op.
func (cm *CostModel) relRowCost(k OpKind) float64 {
	if c, ok := cm.CRel[k]; ok {
		return c
	}
	return 25
}

// Single returns F({v}): the cost of executing v unfused.
func (cm *CostModel) Single(n *DFGNode) float64 {
	rows := n.Rows
	if rows < 1 {
		rows = 1
	}
	uses := float64(max(1, n.Uses))
	switch {
	case n.Kind.IsUDF():
		// Each isolated UDF pays wrapper input conversion per argument,
		// output conversion per produced value, and a boundary crossing
		// — once per (unfused) use of the shared call. Morsel execution
		// spreads the per-row work across partitions but pays one
		// boundary crossing per partition.
		return uses * (rows*(cm.WIn*float64(max(1, len(n.In)))+cm.WOut*n.Sel*float64(max(1, len(n.Out)))+cm.udfRowCost(n))/cm.speedup(rows) + cm.CrossCost*float64(cm.partitions(rows)))
	default:
		return rows * cm.relRowCost(n.Kind) / cm.speedup(rows)
	}
}

// Fused returns F(S) for a (closed) section: the fused wrapper converts
// the section's external inputs once, runs every UDF at its processing
// cost, executes offloaded relational operators at C_ru, and converts
// only the final outputs back.
func (cm *CostModel) Fused(nodes []*DFGNode, extIn, extOut int, entryRows float64) float64 {
	if entryRows < 1 {
		entryRows = 1
	}
	// Fused wrappers run under the same morsel executor (per-worker
	// interpreter clones), so per-row terms scale with the entry rows'
	// speedup while each partition pays its own boundary crossing.
	sp := cm.speedup(entryRows)
	cost := entryRows*cm.WIn*float64(extIn)/sp + cm.CrossCost*float64(cm.partitions(entryRows))
	outRows := entryRows
	for _, n := range nodes {
		rows := n.Rows
		if rows < 1 {
			rows = 1
		}
		if n.Kind.IsUDF() {
			cost += rows * cm.udfRowCost(n) / sp
		} else if n.Kind == KRelGroupBy {
			// Offloaded through the engine-FFI: engine cost, no penalty.
			cost += rows * cm.relRowCost(n.Kind) / sp
		} else {
			cost += rows * cm.relRowCost(n.Kind) * cm.UDFFactor / sp
		}
		if n.Sel > 0 {
			outRows = rows * n.Sel
		}
	}
	// Final output conversion: one boundary crossing per produced row.
	// (Per-column final materialization is paid identically by the
	// unfused plan, so only the single crossing differentiates.)
	_ = extOut
	cost += outRows * cm.WOut / sp
	return cost
}

// ShouldOffload evaluates the Table 1 inequality for a relational
// operator r considered for execution inside the UDF environment:
//
//	Σ_u |u|·(W_in + W_out·σ_u)  −  |u_f|·(W_in + W_out·σ_uf)
//	        >  |r|·(C_ru·σ_r − C_r·σ_r)
//
// The left side is the wrapper saving of fusing the N affected UDFs
// into one; the right side the loss of running r in the UDF environment
// instead of the engine. If the right side is negative (a gain), r is
// always offloaded.
func (cm *CostModel) ShouldOffload(r *DFGNode, udfs []*DFGNode, fusedRows, fusedSel float64) bool {
	var save float64
	for _, u := range udfs {
		rows := u.Rows
		if rows < 1 {
			rows = 1
		}
		save += rows * (cm.WIn + cm.WOut*u.Sel)
	}
	if fusedRows < 1 {
		fusedRows = 1
	}
	save -= fusedRows * (cm.WIn + cm.WOut*fusedSel)
	rRows := r.Rows
	if rRows < 1 {
		rRows = 1
	}
	cr := cm.relRowCost(r.Kind)
	loss := rRows * (cr*cm.UDFFactor*r.Sel - cr*r.Sel)
	if loss <= 0 {
		return true
	}
	return save > loss
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
