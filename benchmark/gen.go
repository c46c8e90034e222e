package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"qfusor/internal/data"
	"qfusor/internal/engines"
	"qfusor/internal/workload"
)

// Everything the engine sees — tables, SQL texts, the order operations
// arrive in — is derived here from -seed and nothing else, so two runs
// with one seed measure the same inputs and two seeds differ only in
// which rows, literals and orderings were drawn.

// rng is splitmix64, the same generator internal/workload uses.
type rng struct{ s uint64 }

// stream returns an independent generator for one purpose, so adding a
// draw to one stream never shifts another.
func stream(seed uint64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rng{s: h.Sum64() ^ (seed * 0x9e3779b97f4a7c15)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipf draws from {0..n-1} with P(k) ∝ 1/(k+1)^s by inverting the
// precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	return sort.SearchFloat64s(z.cdf, r.float())
}

// resample draws n rows of t with replacement, balanced: seeded
// permutations of t's rows laid end to end and cut at n, then shuffled.
// Every row is drawn n/len(t) times give or take one, so two seeds differ
// in which rows repeat and in their order, not in how much work the
// table holds — a plain bootstrap moves Q3's self-join by ±8 % between
// seeds, which would drown the changes the bounds are meant to catch.
func resample(t *data.Table, n int, r *rng) *data.Table {
	idx := make([]int, 0, n+t.NumRows())
	for len(idx) < n {
		idx = append(idx, r.perm(t.NumRows())...)
	}
	idx = idx[:n]
	for i, j := range r.perm(n) {
		idx[i], idx[j] = idx[j], idx[i]
	}
	return data.FromChunk(t.Name, t.Chunk().Take(idx))
}

// opKind says which entry point an operation goes through.
type opKind uint8

const (
	opQuery    opKind = iota // a SELECT (QueryFusedCtx or POST /v1/query with sql)
	opPrepared               // the same SELECT through a /v1/prepare handle
	opExec                   // DML (Engine.Exec or POST /v1/exec)
)

// op is one scheduled operation: template tmpl's text number variant.
type op struct {
	Tmpl    uint8
	Kind    opKind
	Variant uint16
}

// template is one family of SQL texts that differ only in a literal.
type template struct {
	Name string
	// Texts holds every variant (one for the embedded workloads). Writes
	// have none: their text carries a sequence number, see inputs.text.
	Texts []string
	// UDF marks templates that call a UDF (the rest are plain SQL and
	// never enter the plan cache).
	UDF bool
	// Rows is the number of input rows the template scans.
	Rows int
}

// inputs is everything one workload run feeds the engine.
type inputs struct {
	profile   engines.Profile
	tables    []*data.Table
	install   []func(*engines.Instance) error
	templates []template
	// sched[c] is client c's operation sequence (replayed from the start
	// if a run outlasts it).
	sched [][]op
	// sweep is how many operations one warm-up sweep is.
	sweep int
	// eventsTmpl is the template that counts the events table (-1 when
	// the workload has none): its expected answer moves with every
	// acknowledged insert.
	eventsTmpl int
	eventsRows int
}

// text renders an operation's SQL. Writes append to events with a
// per-run sequence number so no two texts repeat.
func (in *inputs) text(o op, seq int) string {
	if o.Kind == opExec {
		return fmt.Sprintf("INSERT INTO events VALUES (%d, 'k%d')", 1_000_000+seq, seq%7)
	}
	return in.templates[o.Tmpl].Texts[o.Variant]
}

// callers is how many closed-loop callers drive a workload. The issue
// asked for min(2, nproc) = 2 sharing one instance; that returns wrong
// rows and spurious cancellations, because concurrent queries share
// interpreter state inside the engine (README.md, "Defects found"), and a
// benchmark must not run operations that fail. One caller it is, on
// every workload, until those are fixed; the engine still spreads each
// query's morsels over both cores. Raising this constant restores the
// issue's load shape.
const callers = 1

// sweeps builds the embedded workloads' schedules: each caller works
// through nSweeps seeded permutations of the templates.
func sweeps(seed uint64, nTemplates, nSweeps int) [][]op {
	sched := make([][]op, callers)
	for c := range sched {
		r := stream(seed, fmt.Sprintf("sched/%d", c))
		for s := 0; s < nSweeps; s++ {
			for _, t := range r.perm(nTemplates) {
				sched[c] = append(sched[c], op{Tmpl: uint8(t)})
			}
		}
	}
	return sched
}

func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m > 8 {
		return m
	}
	return 8
}

// genTables builds the internal/workload generator tables at Small and
// resamples each to factor × its row count × scale.
func genTables(seed uint64, factor, scale float64, names ...string) []*data.Table {
	ub := workload.GenUDFBench(workload.Small)
	pop, dirty := workload.GenWeld(workload.Small)
	arrays, docs := workload.GenUDO(workload.Small)
	all := []*data.Table{ub.Pubs, ub.Artifacts, workload.GenZillow(workload.Small), pop, dirty, arrays, docs}
	var out []*data.Table
	for _, name := range names {
		for _, t := range all {
			if t.Name == name {
				n := scaled(int(float64(t.NumRows())*factor), scale)
				out = append(out, resample(t, n, stream(seed, "table/"+name)))
			}
		}
	}
	return out
}

func rowsOf(tables []*data.Table, name string) int {
	for _, t := range tables {
		if t.Name == name {
			return t.NumRows()
		}
	}
	return 0
}

// queryTable names the table each evaluation query scans.
var queryTable = map[string]string{
	"Q1": "pubs", "Q2": "pubs", "Q3": "pubs", "Q8": "pubs", "Q9": "pubs", "Q10": "pubs",
	"Q4": "artifacts", "Q5": "artifacts", "Q6": "artifacts", "Q7": "artifacts",
	"Q11": "listings", "Q12": "listings", "Q13": "listings", "Q14": "listings",
	"Q15": "population", "Q16": "dirty", "Q17": "arrays", "Q18": "docs",
}

func paperTemplates(tables []*data.Table, ids ...string) []template {
	all := workload.AllQueries()
	out := make([]template, len(ids))
	for i, id := range ids {
		out[i] = template{Name: id, Texts: []string{all[id]}, UDF: true, Rows: rowsOf(tables, queryTable[id])}
	}
	return out
}

// genUDFScan: all 18 evaluation queries at 2× workload.Small rows.
func genUDFScan(seed uint64, scale float64) *inputs {
	tables := genTables(seed, 2, scale, "pubs", "artifacts", "listings", "population", "dirty", "arrays", "docs")
	ids := make([]string, 18)
	for i := range ids {
		ids[i] = fmt.Sprintf("Q%d", i+1)
	}
	return &inputs{
		profile:    engines.Monet,
		tables:     tables,
		install:    []func(*engines.Instance) error{workload.InstallUDFBench, workload.InstallZillow, workload.InstallWeld, workload.InstallUDO},
		templates:  paperTemplates(tables, ids...),
		sched:      sweeps(seed, len(ids), 64),
		sweep:      len(ids),
		eventsTmpl: -1,
	}
}

// genRowIPC: the scalar-UDF queries on the row executor of the Postgres
// profile, at workload.Small rows. Fused sections run in process on
// every profile, so the seven evaluation queries alone never touch the
// serialized transport; the two ipc_* templates hold a single UDF each,
// which QFusor leaves unfused, and so cross the process boundary once
// per row and once per 256-row batch.
func genRowIPC(seed uint64, scale float64) *inputs {
	tables := genTables(seed, 1, scale, "pubs", "artifacts", "listings")
	templates := append(paperTemplates(tables, "Q1", "Q2", "Q4", "Q9", "Q10", "Q12", "Q13"),
		template{Name: "ipc_rows", UDF: true, Rows: 128,
			Texts: []string{"SELECT lower(title) AS t FROM artifacts LIMIT 128"}},
		template{Name: "ipc_batch", UDF: true, Rows: rowsOf(tables, "pubs"),
			Texts: []string{"SELECT extractfunder(project) AS f, COUNT(*) AS n FROM pubs GROUP BY extractfunder(project)"}},
	)
	return &inputs{
		profile:    engines.Postgres,
		tables:     tables,
		install:    []func(*engines.Instance) error{workload.InstallUDFBench, workload.InstallZillow},
		templates:  templates,
		sched:      sweeps(seed, len(templates), 256),
		sweep:      len(templates),
		eventsTmpl: -1,
	}
}

// inlineLib holds straight-line UDFs the relational inliner translates
// into engine expressions (E22's sboost shape: a None guard, then
// int/float arithmetic and comparisons).
const inlineLib = `
@scalarudf
def sboost(x: int) -> int:
    if x is None:
        return None
    return (x * 37 + 11) * 3 - x

@scalarudf
def fscale(x: float) -> float:
    if x is None:
        return None
    return x * 1.5 + 0.25

@scalarudf
def bucket(x: int) -> int:
    if x is None:
        return None
    if x < 100:
        return 0
    if x < 1000:
        return 1
    return 2
`

func defineInlineLib(in *engines.Instance) error { return in.Define(inlineLib) }

var bigLabels = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
	"iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi"}

// genInline: a 200 000-row fact table and a 1 000-row dimension, queried
// through inlinable UDFs and two UDF-free templates.
func genInline(seed uint64, scale float64) *inputs {
	nBig, nDim := scaled(200_000, scale), scaled(1000, math.Sqrt(scale))
	r := stream(seed, "table/big")
	big := data.NewTable("big", data.Schema{
		{Name: "k", Kind: data.KindInt}, {Name: "n", Kind: data.KindInt},
		{Name: "f", Kind: data.KindFloat}, {Name: "s", Kind: data.KindString}})
	// f is a permutation of distinct values, so ORDER BY f … LIMIT has
	// no ties and the native and inlined answers hold the same rows.
	fperm := r.perm(nBig)
	for i := 0; i < nBig; i++ {
		n := data.Int(int64(r.intn(5000)))
		if r.intn(100) == 0 {
			n = data.Null
		}
		_ = big.AppendRow(data.Int(int64(r.intn(nDim))), n,
			data.Float((float64(fperm[i])+0.5)*1000/float64(nBig)), data.Str(bigLabels[r.intn(len(bigLabels))]))
	}
	r = stream(seed, "table/dim")
	dim := data.NewTable("dim", data.Schema{
		{Name: "k", Kind: data.KindInt}, {Name: "w", Kind: data.KindInt}, {Name: "label", Kind: data.KindString}})
	for i := 0; i < nDim; i++ {
		_ = dim.AppendRow(data.Int(int64(i)), data.Int(int64(r.intn(100))), data.Str(fmt.Sprintf("g%02d", r.intn(40))))
	}

	// Literal parameters: drawn once per seed, fixed for the run, so each
	// template is one SQL text and the plan cache always hits. The ranges
	// are narrow on purpose: each literal moves its predicate's
	// selectivity by under a hundredth between seeds, so the seed changes
	// the text and the rows that pass, not how much work the query is.
	r = stream(seed, "literals")
	vCut := 450_000 + r.intn(1000)       // sboost(n) tops out near 550 000
	fCut := 750 + r.intn(10)             // fscale(f) spans 0.25 … 1500
	nCut := 500 + r.intn(10)             // n spans 0 … 4999
	fRel := float64(800+r.intn(5)) + 0.5 // f spans 0 … 1000
	udf := func(name, sql string) template {
		return template{Name: name, Texts: []string{sql}, UDF: true, Rows: nBig}
	}
	rel := func(name, sql string) template {
		return template{Name: name, Texts: []string{sql}, Rows: nBig}
	}
	templates := []template{
		udf("filter", fmt.Sprintf("SELECT k, sboost(n) AS v FROM big WHERE sboost(n) > %d", vCut)),
		udf("groupby", "SELECT bucket(n) AS b, COUNT(*) AS c, SUM(sboost(n)) AS v FROM big GROUP BY bucket(n)"),
		udf("join", "SELECT d.label, SUM(sboost(b.n)) AS v FROM big AS b JOIN dim AS d ON b.k = d.k GROUP BY d.label"),
		udf("case", fmt.Sprintf("SELECT SUM(CASE WHEN fscale(f) > %d THEN sboost(n) ELSE 0 END) AS v FROM big", fCut)),
		udf("orderby", fmt.Sprintf("SELECT k, fscale(f) AS v FROM big WHERE n < %d ORDER BY v DESC LIMIT 100", nCut)),
		udf("nested", "SELECT SUM(sboost(sboost(n))) AS v FROM big"),
		rel("rel_groupby", "SELECT s, COUNT(*) AS c, SUM(n) AS sn, MAX(f) AS mf FROM big GROUP BY s"),
		rel("rel_join", fmt.Sprintf("SELECT d.label, COUNT(*) AS c, SUM(d.w) AS sw FROM big AS b JOIN dim AS d ON b.k = d.k WHERE b.f > %g GROUP BY d.label", fRel)),
	}
	return &inputs{
		profile:    engines.Monet,
		tables:     []*data.Table{big, dim},
		install:    []func(*engines.Instance) error{defineInlineLib},
		templates:  templates,
		sched:      sweeps(seed, len(templates), 128),
		sweep:      len(templates),
		eventsTmpl: -1,
	}
}

// serve_short_mixed shape. serveVariants × 6 read templates = 384
// distinct texts, more than the 256-entry plan cache holds; serveZipfS
// was tuned once so the steady-state plan-cache hit ratio sits between
// 0.75 and 0.90 with the 1 % writes invalidating every cached plan (see
// README.md for the measured value), and is frozen.
const (
	serveVariants   = 64
	serveZipfS      = 2.6
	servePrepared   = 8 // handles per template, its most popular variants
	serveOps        = 1 << 15
	serveListings   = 64
	servePage       = 128 // rows (× 3 columns) the projection returns
	servePubs       = 64
	serveDocs       = 64
	serveNums       = 64
	serveEventsInit = 64
)

func genServe(seed uint64, scale float64) *inputs {
	ub := workload.GenUDFBench(workload.Small)
	_, docs := workload.GenUDO(workload.Small)
	zillow := workload.GenZillow(workload.Small)
	listings := resample(zillow, serveListings, stream(seed, "table/listings"))
	page := resample(zillow, servePage, stream(seed, "table/page"))
	page.Name = "page"
	pubs := resample(ub.Pubs, servePubs, stream(seed, "table/pubs"))
	docs = resample(docs, serveDocs, stream(seed, "table/docs"))
	// docs ids are resampled with the rows; renumber so "id >= L" cuts a
	// predictable share.
	for i := range docs.Col("id").Ints {
		docs.Col("id").Ints[i] = int64(i)
	}
	r := stream(seed, "table/nums")
	nums := data.NewTable("nums", data.Schema{{Name: "n", Kind: data.KindInt}})
	for i := 0; i < serveNums; i++ {
		_ = nums.AppendRow(data.Int(int64(r.intn(4096))))
	}
	events := data.NewTable("events", data.Schema{{Name: "id", Kind: data.KindInt}, {Name: "kind", Kind: data.KindString}})
	for i := 0; i < serveEventsInit; i++ {
		_ = events.AppendRow(data.Int(int64(i)), data.Str(fmt.Sprintf("k%d", r.intn(7))))
	}

	// Each read template's literal takes serveVariants values; which
	// value a variant index maps to is seeded.
	lit := stream(seed, "literals")
	variants := func(format string, value func(v int) []any) []string {
		order := lit.perm(serveVariants)
		out := make([]string, serveVariants)
		for i, v := range order {
			out[i] = fmt.Sprintf(format, value(v)...)
		}
		return out
	}
	read := func(name string, rows int, texts []string) template {
		return template{Name: name, Texts: texts, UDF: true, Rows: rows}
	}
	templates := []template{
		read("q13", serveListings, variants(
			"SELECT COUNT(*) AS n, MAX(extractbd(facts)) AS bd FROM listings WHERE extractoffer(offer) = 'sale' AND extractsqft(facts) >= %d",
			func(v int) []any { return []any{400 + 60*v} })),
		read("q14", serveListings, variants(
			"SELECT c, COUNT(*) AS n, SUM(CASE WHEN bd >= 3 THEN 1 ELSE 0 END) AS big FROM (SELECT cleancity(city) AS c, extractbd(facts) AS bd, extractsqft(facts) AS sq FROM listings) AS x WHERE sq >= %d GROUP BY c",
			func(v int) []any { return []any{400 + 50*v} })),
		read("q8", servePubs, variants(
			"SELECT COUNT(*) AS n FROM (SELECT cleandate(pubdate) AS day FROM pubs) AS d WHERE day < '%04d-%02d-01'",
			func(v int) []any { return []any{2010 + v/6, 1 + 2*(v%6)} })),
		read("q2", servePubs, variants(
			"SELECT funder, COUNT(*) AS pubs, SUM(citations) AS cites FROM (SELECT extractfunder(project) AS funder, citations FROM pubs) AS p WHERE citations >= %d AND funder IS NOT NULL GROUP BY funder",
			func(v int) []any { return []any{6 * v} })),
		read("q18", serveDocs, variants(
			"SELECT COUNT(*) AS hits FROM docs WHERE containsdb(text) AND id >= %d",
			func(v int) []any { return []any{v} })),
		read("sboost", serveNums, variants(
			"SELECT SUM(sboost(n)) AS v FROM nums WHERE n >= %d",
			func(v int) []any { return []any{48 * v} })),
		{Name: "projection", Texts: []string{"SELECT url, city, price FROM page"}, Rows: servePage},
		{Name: "events_count", Texts: []string{"SELECT COUNT(*) AS n FROM events"}, Rows: serveEventsInit},
		{Name: "insert", Rows: 1},
	}
	const (
		nReads                            = 6
		tProjection, tEvents, tInsert int = 6, 7, 8
	)

	// The mix, in percent: 78 reads, 10 prepared, 10 projection, 1 count
	// of events, 1 insert. Only caller 0 touches events — INSERT appends
	// to the table in place, so a concurrent scan of it would race — and
	// any other caller issues a read in those slots.
	z := newZipf(serveVariants, serveZipfS)
	zp := newZipf(servePrepared, serveZipfS)
	nOps := scaled(serveOps, scale)
	sched := make([][]op, callers)
	for c := range sched {
		r := stream(seed, fmt.Sprintf("sched/%d", c))
		sched[c] = make([]op, nOps)
		for i := range sched[c] {
			p := r.intn(100)
			if c != 0 && p >= 98 {
				p = 0
			}
			switch {
			case p < 78:
				sched[c][i] = op{Tmpl: uint8(r.intn(nReads)), Variant: uint16(z.draw(r))}
			case p < 88:
				sched[c][i] = op{Tmpl: uint8(r.intn(nReads)), Variant: uint16(zp.draw(r)), Kind: opPrepared}
			case p < 98:
				sched[c][i] = op{Tmpl: uint8(tProjection)}
			case p == 98:
				sched[c][i] = op{Tmpl: uint8(tEvents)}
			default:
				sched[c][i] = op{Tmpl: uint8(tInsert), Kind: opExec}
			}
		}
	}
	return &inputs{
		profile:    engines.Monet,
		tables:     []*data.Table{listings, page, pubs, docs, nums, events},
		install:    []func(*engines.Instance) error{workload.InstallUDFBench, workload.InstallZillow, workload.InstallUDO, defineInlineLib},
		templates:  templates,
		sched:      sched,
		sweep:      1000,
		eventsTmpl: tEvents,
		eventsRows: serveEventsInit,
	}
}
