package bench

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"qfusor/internal/baselines/pandas"
	"qfusor/internal/baselines/tuplex"
	"qfusor/internal/baselines/udo"
	"qfusor/internal/baselines/weld"
	"qfusor/internal/data"
	"qfusor/internal/pylite"
	"qfusor/internal/workload"
)

// ---------------------------------------------------------------------
// Tuplex adapters: the workload queries expressed as LINQ pipelines
// with row-level UDFs (Tuplex's programming model).
// ---------------------------------------------------------------------

// tuplexSrc defines the row-level UDFs; the column-level bodies are the
// same ones the SQL UDF library uses.
var tuplexSrc = workload.ZillowLib + workload.UDFBenchLib + `
def z_extract(r):
    return [cleancity(r[3]), extracttype(r[1]), extractprice(r[5]),
            extractsqft(r[6]), extractbd(r[6]), extractoffer(r[7])]

def z_filter(r):
    return r[4] is not None and r[4] >= 2 and r[5] == "sale"

def z_urls(r):
    return [hostname(r[0]), urldepth(r[0]), extracturlid(r[0])]

def z_q13map(r):
    return [extractbd(r[6]), extractprice(r[5]), extractoffer(r[7])]

def z_q13filter(r):
    return r[2] == "sale"

def z_q14map(r):
    return [cleancity(r[3]), extractbd(r[6]), extractprice(r[5]), extractoffer(r[7])]

def z_q14filter(r):
    return r[3] != "unknown"

def b_q1map(r):
    return [cleandate(r[1]), lower(r[4]), extractfunder(r[3])]

def b_q2map(r):
    return [extractfunder(r[3]), cleandate(r[1]), r[6]]

def b_q2filter(r):
    return r[1] is not None and r[1] >= "2012-01-01" and r[0] is not None
`

// newTuplex builds a context with the adapter UDFs.
func newTuplex(par int) (*tuplex.Context, error) {
	return tuplex.NewContext(tuplexSrc, par)
}

// tuplexZillowQ11 runs the Zillow pipeline (Q11) on Tuplex.
func tuplexZillowQ11(par int, t *data.Table, fromCSV bool) (int, tuplex.Stats, error) {
	ctx, err := newTuplex(par)
	if err != nil {
		return 0, tuplex.Stats{}, err
	}
	var ds *tuplex.Dataset
	if fromCSV {
		csv := tuplex.ToCSV(t)
		ds, err = ctx.CSV(csv, kindsOf(t))
		if err != nil {
			return 0, tuplex.Stats{}, err
		}
	} else {
		ds = ctx.FromTable(t)
	}
	rows, stats, err := ds.
		Map("z_extract").
		Filter("z_filter").
		Aggregate([]int{0, 1},
			tuplex.AggSpec{Kind: "count"},
			tuplex.AggSpec{Kind: "sum", Col: 2},
			tuplex.AggSpec{Kind: "sum", Col: 3}).
		Collect()
	return len(rows), stats, err
}

// tuplexZillow runs Q12/Q13/Q14 by id.
func tuplexZillow(id string, par int, t *data.Table) (int, tuplex.Stats, error) {
	ctx, err := newTuplex(par)
	if err != nil {
		return 0, tuplex.Stats{}, err
	}
	ds := ctx.FromTable(t)
	switch id {
	case "Q12":
		ds = ds.Map("z_urls")
	case "Q13":
		ds = ds.Map("z_q13map").Filter("z_q13filter").Select(0, 1)
	case "Q14":
		ds = ds.Map("z_q14map").Filter("z_q14filter").
			Aggregate([]int{0}, tuplex.AggSpec{Kind: "count"}, tuplex.AggSpec{Kind: "sum", Col: 2})
	default:
		return 0, tuplex.Stats{}, fmt.Errorf("bench: tuplex does not support %s", id)
	}
	rows, stats, err := ds.Collect()
	return len(rows), stats, err
}

// tuplexUDFBench runs Q1/Q2 on Tuplex over the pubs table.
func tuplexUDFBench(id string, par int, pubs *data.Table) (int, tuplex.Stats, error) {
	ctx, err := newTuplex(par)
	if err != nil {
		return 0, tuplex.Stats{}, err
	}
	ds := ctx.FromTable(pubs)
	switch id {
	case "Q1":
		ds = ds.Map("b_q1map")
	case "Q2":
		ds = ds.Map("b_q2map").Filter("b_q2filter").
			Aggregate([]int{0}, tuplex.AggSpec{Kind: "count"}, tuplex.AggSpec{Kind: "sum", Col: 2})
	default:
		return 0, tuplex.Stats{}, fmt.Errorf("bench: tuplex does not support %s", id)
	}
	rows, stats, err := ds.Collect()
	return len(rows), stats, err
}

func kindsOf(t *data.Table) []data.Kind {
	out := make([]data.Kind, len(t.Schema))
	for i, f := range t.Schema {
		out[i] = f.Kind
	}
	return out
}

// ---------------------------------------------------------------------
// Pandas adapters
// ---------------------------------------------------------------------

// pandasRuntime builds the interpreter pandas uses for df.apply.
func pandasRuntime() (*pylite.Interp, error) {
	rt := pylite.NewInterp() // no JIT: CPython-style apply
	if err := rt.Exec(workload.ZillowLib + workload.UDFBenchLib); err != nil {
		return nil, err
	}
	return rt, nil
}

// pandasQuery runs Q1/Q2/Q11/Q12 on the pandas baseline.
func pandasQuery(id string, pubs, listings *data.Table) (int, error) {
	rt, err := pandasRuntime()
	if err != nil {
		return 0, err
	}
	switch id {
	case "Q1":
		df := pandas.FromTable(pubs)
		if df, err = df.Apply(rt, "day", "pubdate", "cleandate"); err != nil {
			return 0, err
		}
		if df, err = df.Apply(rt, "t", "title", "lower"); err != nil {
			return 0, err
		}
		if df, err = df.Apply(rt, "f", "project", "extractfunder"); err != nil {
			return 0, err
		}
		return df.N, nil
	case "Q2":
		df := pandas.FromTable(pubs)
		if df, err = df.Apply(rt, "funder", "project", "extractfunder"); err != nil {
			return 0, err
		}
		if df, err = df.Apply(rt, "day", "pubdate", "cleandate"); err != nil {
			return 0, err
		}
		mask, err := df.MaskCmp("day", ">=", data.Str("2012-01-01"))
		if err != nil {
			return 0, err
		}
		df = df.FilterMask(mask)
		mask, err = df.MaskCmp("funder", "!=", data.Str(""))
		if err != nil {
			return 0, err
		}
		df = df.FilterMask(mask)
		out, err := df.GroupAgg([]string{"funder"}, []string{"funder", "citations"}, []string{"count", "sum"})
		if err != nil {
			return 0, err
		}
		return out.N, nil
	case "Q11":
		df := pandas.FromTable(listings)
		steps := [][3]string{
			{"c", "city", "cleancity"}, {"t", "title", "extracttype"},
			{"p", "price", "extractprice"}, {"sq", "facts", "extractsqft"},
			{"bd", "facts", "extractbd"}, {"o", "offer", "extractoffer"},
		}
		for _, st := range steps {
			if df, err = df.Apply(rt, st[0], st[1], st[2]); err != nil {
				return 0, err
			}
		}
		mask, err := df.MaskCmp("bd", ">=", data.Int(2))
		if err != nil {
			return 0, err
		}
		df = df.FilterMask(mask)
		mask, err = df.MaskCmp("o", "==", data.Str("sale"))
		if err != nil {
			return 0, err
		}
		df = df.FilterMask(mask)
		out, err := df.GroupAgg([]string{"c", "t"}, []string{"c", "p", "sq"}, []string{"count", "sum", "sum"})
		if err != nil {
			return 0, err
		}
		return out.N, nil
	case "Q12":
		df := pandas.FromTable(listings)
		if df, err = df.Apply(rt, "h", "url", "hostname"); err != nil {
			return 0, err
		}
		if df, err = df.Apply(rt, "d", "url", "urldepth"); err != nil {
			return 0, err
		}
		if df, err = df.Apply(rt, "zpid", "url", "extracturlid"); err != nil {
			return 0, err
		}
		return df.N, nil
	}
	return 0, fmt.Errorf("bench: pandas does not support %s", id)
}

// ---------------------------------------------------------------------
// UDO adapters (compiled Go operators, no fusion unless Fused)
// ---------------------------------------------------------------------

// udoRuntime builds the compiled-UDF runtime UDO's operators use: the
// operators are "compiled into the engine" (pylite.Compile ahead of
// time), putting UDO on the same execution tier as QFusor's JIT — the
// paper's positioning — while still lacking fusion and vectorized
// transports.
func udoRuntime() (*pylite.Interp, error) {
	rt := pylite.NewInterp()
	rt.HotThreshold = 1 // compile on first call (ahead-of-time in spirit)
	if err := rt.Exec(workload.ZillowLib + workload.UDOLib + `
def udo_extract(city, title, price, facts, offer):
    return [cleancity(city), extracttype(title), extractprice(price),
            extractsqft(facts), extractbd(facts), extractoffer(offer)]

def udo_keep(bd, offer):
    return bd is not None and bd >= 2 and offer == "sale"
`); err != nil {
		return nil, err
	}
	return rt, nil
}

// udoCaller calls PyLite functions from UDO's operator threads, each
// call on a runtime view it borrows: a view's call stacks belong to one
// goroutine, and a pipeline with Parallelism > 1 runs its operators on
// several. With a non-nil each, the result's items (a generator's rows)
// go to each on the same view.
func udoCaller(rt *pylite.Interp) func(fn data.Value, each func(data.Value) error, args ...data.Value) (data.Value, error) {
	views := &sync.Pool{New: func() any { return rt.Worker() }}
	return func(fn data.Value, each func(data.Value) error, args ...data.Value) (data.Value, error) {
		v := views.Get().(*pylite.Interp)
		defer views.Put(v)
		r, err := v.Call(fn, args)
		if err != nil || each == nil {
			return r, err
		}
		return data.Null, v.Iterate(r, each)
	}
}

// udoZillowQ11 runs the Zillow pipeline as a UDO operator chain.
func udoZillowQ11(t *data.Table, fused bool, par int) (int, udo.Stats, error) {
	rt, err := udoRuntime()
	if err != nil {
		return 0, udo.Stats{}, err
	}
	call := udoCaller(rt)
	extractFn, _ := rt.Global("udo_extract")
	keepFn, _ := rt.Global("udo_keep")
	extract := udo.MapOp("z_extract", func(r []data.Value) []data.Value {
		out, err := call(extractFn, nil, r[3], r[1], r[5], r[6], r[7])
		if err != nil || out.List() == nil {
			return []data.Value{data.Null, data.Null, data.Null, data.Null, data.Null, data.Null}
		}
		return out.List().Items
	})
	filter := udo.FilterOp("z_filter", func(r []data.Value) bool {
		v, err := call(keepFn, nil, r[4], r[5])
		return err == nil && v.Truthy()
	})
	p := &udo.Pipeline{Ops: []udo.Operator{extract, filter}, Fused: fused, Parallelism: par}
	rows, stats, err := p.Run(t)
	if err != nil {
		return 0, stats, err
	}
	// Terminal aggregation (engine-side in UDO's model).
	groups := map[string]int{}
	for _, r := range rows {
		groups[r[0].String()+"|"+r[1].String()]++
	}
	return len(groups), stats, nil
}

// udoRun runs Q17/Q18 as UDO pipelines over compiled operators.
func udoRun(id string, arrays, docs *data.Table, par int) (int, udo.Stats, error) {
	rt, err := udoRuntime()
	if err != nil {
		return 0, udo.Stats{}, err
	}
	call := udoCaller(rt)
	switch id {
	case "Q17":
		fn, _ := rt.Global("splitarray")
		split := udo.ExpandOp("splitarray", func(r []data.Value, emit func([]data.Value)) {
			_, _ = call(fn, func(v data.Value) error {
				emit([]data.Value{r[0], v})
				return nil
			}, r[1])
		})
		p := &udo.Pipeline{Ops: []udo.Operator{split}, Parallelism: par}
		rows, stats, err := p.Run(arrays)
		return len(rows), stats, err
	case "Q18":
		fn, _ := rt.Global("containsdb")
		filter := udo.FilterOp("containsdb", func(r []data.Value) bool {
			v, err := call(fn, nil, r[1])
			return err == nil && v.Truthy()
		})
		p := &udo.Pipeline{Ops: []udo.Operator{filter}, Parallelism: par}
		rows, stats, err := p.Run(docs)
		return len(rows), stats, err
	}
	return 0, udo.Stats{}, fmt.Errorf("bench: udo does not support %s", id)
}

// ---------------------------------------------------------------------
// Weld adapters
// ---------------------------------------------------------------------

// weldStats carries the Weld phase breakdown.
type weldStats struct {
	Preprocess time.Duration
	Load       time.Duration
	Execute    time.Duration
}

// weldRun executes Q15/Q16 in the Weld runtime.
func weldRun(id string, pop, dirty *data.Table) (int, weldStats, error) {
	var st weldStats
	switch id {
	case "Q15": // get_population_stats
		csv := tuplex.ToCSV(pop)
		frame, d, err := weld.Preprocess(csv,
			[]string{"city", "state", "population", "area", "growth"},
			[]bool{true, true, false, false, false})
		if err != nil {
			return 0, st, err
		}
		st.Preprocess = d
		rt, ld := weld.Load(frame)
		st.Load = ld
		start := time.Now()
		logs := rt.Map(2, func(v float64) float64 {
			if v <= 0 {
				return 0
			}
			return logf(v)
		})
		growth := rt.Map(4, func(v float64) float64 {
			if v < 0 {
				return 0
			}
			if v > 100 {
				return 100
			}
			return v
		})
		stats := rt.GroupReduce(1, rt.Col(2), nil)
		_ = rt.GroupReduce(1, logs, nil)
		_ = rt.GroupReduce(1, growth, nil)
		st.Execute = time.Since(start)
		return len(stats), st, nil
	case "Q16": // data_cleaning
		csv := tuplex.ToCSV(dirty)
		frame, d, err := weld.Preprocess(csv,
			[]string{"id", "f1", "f2", "f3"},
			[]bool{false, false, false, false})
		if err != nil {
			return 0, st, err
		}
		st.Preprocess = d
		rt, ld := weld.Load(frame)
		st.Load = ld
		start := time.Now()
		m1 := rt.FilterMask(1, func(v float64) bool { return v >= 0 })
		m2 := rt.FilterMask(2, func(v float64) bool { return v >= 0 })
		m3 := rt.FilterMask(3, func(v float64) bool { return v >= 0 })
		for i := range m1 {
			m1[i] = m1[i] && m2[i] && m3[i]
		}
		g := rt.Reduce(rt.Col(1), m1)
		_ = rt.Reduce(rt.Col(2), m1)
		st.Execute = time.Since(start)
		return int(g.Count), st, nil
	}
	return 0, st, fmt.Errorf("bench: weld does not support %s", id)
}

func logf(v float64) float64 { return math.Log(v) }

// udoQ1Adapted runs Q1's three scalar UDFs as UDO table operators
// (UDO supports only table UDFs, so the paper implemented the scalars
// that way).
func udoQ1Adapted(pubs *data.Table) (int, udo.Stats, error) {
	rt, err := udoRuntime()
	if err != nil {
		return 0, udo.Stats{}, err
	}
	if err := rt.Exec(workload.UDFBenchLib); err != nil {
		return 0, udo.Stats{}, err
	}
	cleanFn, _ := rt.Global("cleandate")
	lowerFn, _ := rt.Global("lower")
	funderFn, _ := rt.Global("extractfunder")
	asOp := func(name string, fn data.Value, col int) udo.Operator {
		return udo.ExpandOp(name, func(r []data.Value, emit func([]data.Value)) {
			v, err := rt.Call(fn, []data.Value{r[col]})
			if err != nil {
				v = data.Null
			}
			out := append(append([]data.Value(nil), r...), v)
			emit(out)
		})
	}
	p := &udo.Pipeline{Ops: []udo.Operator{
		asOp("cleandate", cleanFn, 1),
		asOp("lower", lowerFn, 4),
		asOp("extractfunder", funderFn, 3),
	}}
	rows, stats, err := p.Run(pubs)
	return len(rows), stats, err
}

// weldQ1Adapted rewrites Q1 into Weld's numeric vocabulary: Weld
// cannot run the Python string UDFs, so (like the paper's WeldIR
// rewrite) only the numeric columns flow through its vector passes.
func weldQ1Adapted(pubs *data.Table) (time.Duration, int, error) {
	var sb strings.Builder
	n := pubs.NumRows()
	ids := pubs.Col("pubid")
	cites := pubs.Col("citations")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", ids.Ints[i], cites.Ints[i])
	}
	frame, prep, err := weld.Preprocess(sb.String(),
		[]string{"pubid", "citations"}, []bool{false, false})
	if err != nil {
		return 0, 0, err
	}
	rt, load := weld.Load(frame)
	start := time.Now()
	clean := rt.Map(1, func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	})
	g := rt.Reduce(clean, nil)
	exec := time.Since(start)
	return prep + load + exec, int(g.Count), nil
}
