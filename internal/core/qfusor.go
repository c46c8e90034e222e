package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
	"qfusor/internal/resilience"
	"qfusor/internal/sqlengine"
)

// Optimizer-wide metrics (obs.Default): always-on atomic counters, plus
// half-decade latency histograms for the two phases Fig. 4 reports.
var (
	mProcessed = obs.Default.Counter("qfusor.queries")
	mSections  = obs.Default.Counter("qfusor.sections")
	mCacheHits = obs.Default.Counter("qfusor.cache.hits")
	mCacheMiss = obs.Default.Counter("qfusor.cache.misses")
	mFusNanos  = obs.Default.Histogram("qfusor.fusoptim_nanos")
	mGenNanos  = obs.Default.Histogram("qfusor.codegen_nanos")
)

// Options selects which QFusor techniques run — the knobs the paper's
// ablations flip (§6.4.1, §6.4.3).
type Options struct {
	// Fusion enables operator fusion at all (off = JIT-only execution).
	Fusion bool
	// ScalarOnly restricts fusion to scalar-scalar UDF chains (the
	// YeSQL baseline).
	ScalarOnly bool
	// Offload allows relational operators (filter/case/arithmetic) to
	// execute inside the UDF environment. A DISTINCT is a group-by, which
	// AggFusion gates.
	Offload bool
	// Reorder enables F3 operator reordering (moving disjoint filters
	// engine-side below fused sections).
	Reorder bool
	// AggFusion allows fusing aggregates + group-by via the engine FFI.
	AggFusion bool
	// Cache reuses previously compiled fused wrappers across queries
	// (the QFusor-cache variant of §6.4.5).
	Cache bool
	// PlanCache memoizes whole plan decisions — a repeated query skips
	// EXPLAIN probing, DFG construction, section discovery and the
	// rewrite, going straight to execution (epoch- and breaker-
	// invalidated; see plancache.go).
	PlanCache bool
	// Tier pins the execution tier (see Tier for each value). A call
	// whose UDF has no register program always runs its compiled body.
	Tier Tier
}

// DefaultOptions enables the full QFusor pipeline.
func DefaultOptions() Options {
	return Options{Fusion: true, Offload: true, Reorder: true, AggFusion: true,
		Cache: true, PlanCache: true, Tier: TierAuto}
}

// Report carries the per-query optimizer measurements (Fig. 4 bottom).
type Report struct {
	// FusOptim is the time to discover fusible operators + fusion
	// optimization (Algorithms 1 and 2).
	FusOptim time.Duration
	// CodeGen is the time for query + fused-UDF code generation and
	// registration.
	CodeGen time.Duration
	// Sections fused, and each wrapper's trace rendered as Python-like
	// pseudo-source (ffi.Trace.Render).
	Sections int
	Sources  []string
	// Wrappers names the fused wrappers this query used (fresh or
	// cached) — the units the circuit breaker tracks.
	Wrappers []string
	// Tiers is aligned with Wrappers: the execution tier each wrapper
	// runs on (TierVM, TierClosure or ffi.TierMixed, from its calls'
	// tiers; TierInlined for an inlined site).
	Tiers []Tier
	// CacheHits counts wrappers reused from the compile cache (the
	// wrapper-level cache; the plan-level outcome is PlanCache).
	CacheHits int
	// PlanCache reports the plan-decision cache outcome: "hit" (the
	// whole front-end was skipped), "miss" (planned fresh, now cached),
	// "off" (disabled by Options.PlanCache), or "" when the query never
	// entered the fusion front-end (no UDFs, or Fusion off).
	PlanCache string
	// SectionCosts carries each fused section's predicted (raw F(S))
	// vs measured cost. Actual stays 0 until the query executed fused.
	SectionCosts []SectionCost
	// Fallback reports that the optimized path was abandoned and the
	// result came from the engine's native plan; FallbackReason says
	// why (the fused-path error, or "circuit breaker open").
	Fallback       bool
	FallbackReason string
	// Inlined records the relational-inlining pass's per-UDF decisions
	// for this query: classification verdict, reason when opaque, and
	// how many call sites were substituted. Sites with tier=inlined
	// never cross the FFI boundary.
	Inlined []InlineDecision
}

// SectionCost is one fused section's cost record on a query's Report:
// the cost model's raw F(S) estimate from discovery, and the measured
// cost after execution. Key lists the section's UDFs for display.
type SectionCost struct {
	Wrapper   string  `json:"wrapper"`
	Key       string  `json:"key"`
	Predicted float64 `json:"predicted_nanos"`
	Actual    float64 `json:"actual_nanos,omitempty"`
}

// QFusor is the pluggable optimizer: it connects to an engine, probes
// plans, fuses UDF sections and rewrites queries.
type QFusor struct {
	Reg  *Registry
	CM   *CostModel
	Opts Options

	// Breaker is the degradation circuit breaker: consecutive fused-path
	// failures per query (and per wrapper) open it, after which QueryCtx
	// routes straight to the native plan until a cooldown probe succeeds.
	// Nil disables degradation tracking (failures still fall back).
	Breaker *resilience.Breaker

	// PlanCache memoizes whole optimization outcomes per (engine,
	// options, SQL) — see plancache.go. Nil (or Opts.PlanCache=false)
	// disables plan-decision caching; the wrapper compile cache is
	// independent.
	PlanCache *PlanCache

	// wc is the wrapper compile cache — shared (by pointer) between this
	// QFusor and every Variant derived from it, so concurrent sessions
	// with different option sets reuse one pool of compiled wrappers.
	wc *wrapperCache

	// ic is the relational-inlining classification cache (per-UDF
	// template or opaqueness verdict), shared across Variant clones and
	// epoch-fenced on UDF redefinition like wc — see inline.go.
	ic *inlineCache

	mu sync.Mutex
	// lastReport is the most recent Process measurement (guarded by mu;
	// read through LastReport).
	lastReport Report
}

// wrapperCache is the fused-wrapper compile cache plus the wrapper
// name sequence, extracted from QFusor so Variant clones share it by
// pointer. Sharing matters for the serving plane: every session's
// optimizer — whatever its tier pin or technique switches — must see
// one pool of compiled wrappers (a wrapper's cache key is its
// rendered trace, identical across variants) and one name sequence
// (wrapper names key the breaker bookkeeping in wrapKey). udfEpoch
// fencing lives here too: a flush by any variant protects all of them.
type wrapperCache struct {
	mu      sync.Mutex
	seq     int
	cache   map[string]*ffi.UDF // wrapper key (wrapperKey) -> wrapper
	wrapKey map[string]string   // wrapper name -> wrapper key (breaker key)
	// udfEpoch is the catalog UDF generation the compile cache was
	// built against (see sync).
	udfEpoch int64
}

func newWrapperCache() *wrapperCache {
	return &wrapperCache{cache: make(map[string]*ffi.UDF), wrapKey: make(map[string]string)}
}

// nextName hands out the next unique wrapper name.
func (wc *wrapperCache) nextName() string {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.seq++
	return fmt.Sprintf("__qf_fused%d", wc.seq)
}

// sync flushes the compile cache when any source UDF was (re-)defined
// since the last call — see QFusor.syncUDFEpoch for why.
func (wc *wrapperCache) sync(cat *sqlengine.Catalog) {
	e := cat.UDFEpoch()
	wc.mu.Lock()
	if e != wc.udfEpoch {
		wc.udfEpoch = e
		wc.cache = make(map[string]*ffi.UDF)
	}
	wc.mu.Unlock()
}

// lookup returns the cached wrapper for a wrapper key, refreshing the
// name→hash mapping on a hit.
func (wc *wrapperCache) lookup(key string) (*ffi.UDF, bool) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	u, ok := wc.cache[key]
	if ok {
		wc.wrapKey[u.Name] = key
	}
	return u, ok
}

// setKey records a freshly compiled wrapper's name→hash mapping.
func (wc *wrapperCache) setKey(name, key string) {
	wc.mu.Lock()
	wc.wrapKey[name] = key
	wc.mu.Unlock()
}

// store caches a compiled wrapper under its wrapper key.
func (wc *wrapperCache) store(key string, u *ffi.UDF) {
	wc.mu.Lock()
	wc.cache[key] = u
	wc.mu.Unlock()
}

// breakerKeys maps wrapper names to their breaker keys
// ("wrapper:<hash>"), skipping names with no recorded mapping.
func (wc *wrapperCache) breakerKeys(wrappers []string) []string {
	if len(wrappers) == 0 {
		return nil
	}
	wc.mu.Lock()
	defer wc.mu.Unlock()
	keys := make([]string, 0, len(wrappers))
	for _, w := range wrappers {
		if k, ok := wc.wrapKey[w]; ok {
			keys = append(keys, "wrapper:"+k)
		}
	}
	return keys
}

// New creates a QFusor instance over a registry.
func New(reg *Registry) *QFusor {
	return &QFusor{Reg: reg, CM: DefaultCostModel(), Opts: DefaultOptions(),
		Breaker:   resilience.NewBreaker(3, 30*time.Second),
		PlanCache: NewPlanCache(0),
		wc:        newWrapperCache(),
		ic:        newInlineCache()}
}

// Variant returns a QFusor that runs with its own Options but shares
// every cross-session structure with qf: the UDF registry, the cost
// model, the circuit breaker, the plan-decision cache, and the wrapper
// compile cache (including the wrapper name sequence). This is how the
// serving plane gives each session a pinned tier or technique switches
// without forking any cache: the plan cache already partitions entries
// by options fingerprint, wrapper traces hash identically across
// variants, and epoch fencing on the shared structures protects all
// variants at once.
func (qf *QFusor) Variant(opts Options) *QFusor {
	return &QFusor{Reg: qf.Reg, CM: qf.CM, Opts: opts,
		Breaker: qf.Breaker, PlanCache: qf.PlanCache, wc: qf.wc, ic: qf.ic}
}

func (qf *QFusor) nextName() string { return qf.wc.nextName() }

// LastReport returns the most recent Process measurement.
//
// Deprecated: "most recent" is ambiguous when queries run concurrently;
// prefer the per-query *Report returned by Process, or the Analysis
// handle from QueryAnalyze.
func (qf *QFusor) LastReport() Report {
	qf.mu.Lock()
	defer qf.mu.Unlock()
	return qf.lastReport
}

func (qf *QFusor) setReport(rep Report) {
	qf.mu.Lock()
	qf.lastReport = rep
	qf.mu.Unlock()
}

// registerWrapper builds a fused wrapper — a trace under a fresh name —
// or returns the equal one from the compile cache. The wrapper is a
// plan product, not a catalog entry: the plan node or call that uses it
// holds it (only RewriteSQL publishes it, for path 1). It is complete
// (trace, kind and input kinds set) before it is cached: other queries
// read it from the cache at once.
func (qf *QFusor) registerWrapper(tr *ffi.Trace, kind ffi.UDFKind, inKinds []data.Kind, outNames []string, outKinds []data.Kind) (*ffi.UDF, bool, error) {
	closure := qf.Opts.Tier == TierClosure
	key := wrapperKey(tr, kind, inKinds, outKinds, closure)
	if qf.Breaker != nil && !qf.Breaker.Allow("wrapper:"+key) {
		// This wrapper (by what it computes, so across queries) has been
		// failing at execution time: stop emitting it so the plan stays
		// native until the breaker's cooldown probe.
		return nil, false, fmt.Errorf("core: fused wrapper suppressed (circuit open)")
	}
	if qf.Opts.Cache {
		if u, ok := qf.wc.lookup(key); ok {
			mCacheHits.Inc()
			return u, true, nil
		}
	}
	u := &ffi.UDF{Name: qf.nextName(), Kind: kind, InKinds: inKinds,
		OutNames: outNames, OutKinds: outKinds, RT: qf.Reg.RT, Fused: true}
	// The tier is fixed here, once: the published trace never changes.
	u.SetTrace(ffi.Lower(tr, !closure))
	mCacheMiss.Inc()
	qf.wc.setKey(u.Name, key)
	if qf.Opts.Cache {
		qf.wc.store(key, u)
	}
	return u, false, nil
}

// wrapperKey is a wrapper's identity for the compile cache and the
// circuit breaker: the hash of its rendered trace (under one fixed
// name), its kind, its input and output kinds, and the closure pin —
// a closure-pinned session lowers its own wrappers, so it never changes
// the tier of another session's.
func wrapperKey(tr *ffi.Trace, kind ffi.UDFKind, inKinds, outKinds []data.Kind, closure bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%v %v %v", tr.Render("__qf_wrapper"), kind, inKinds, outKinds)
	if closure {
		fmt.Fprint(h, "\nclosure")
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Process runs the QFusor pipeline on a SQL query against an engine:
// probe the plan (EXPLAIN), discover fusible operators (Alg. 1), decide
// fusion (Alg. 2 + cost model), JIT-generate fused wrappers, and
// rewrite the plan. Returns the (possibly rewritten) executable query.
func (qf *QFusor) Process(eng *sqlengine.Engine, sql string) (*sqlengine.Query, *Report, error) {
	return qf.ProcessTraced(eng, sql, nil)
}

// ProcessTraced is Process with query-lifecycle tracing: when root is
// non-nil, each optimizer phase — plan probe, DFG build, section
// discovery, codegen, rewrite — is recorded as a child span with its
// counters. A nil root (what Process passes) costs one pointer compare
// per hook.
func (qf *QFusor) ProcessTraced(eng *sqlengine.Engine, sql string, root *obs.Span) (*sqlengine.Query, *Report, error) {
	qf.syncUDFEpoch(eng.Catalog)
	qf.CM.SetWorkers(eng.Workers())
	mProcessed.Inc()

	// --- plan-decision cache lookup (before any front-end work) ---
	// A hit returns the memoized rewritten plan directly: no EXPLAIN
	// probe, no DFG, no discovery, no codegen, no rewrite. The admit
	// hook keeps breaker-suppressed wrappers out (see entryAdmitted).
	var (
		cacheKey   string
		cacheEpoch int64
	)
	if qf.planCacheOn() {
		t0 := time.Now()
		cacheKey = planCacheKey(eng, qf.Opts, sql)
		cacheEpoch = eng.Catalog.Epoch()
		if ent, ok := qf.PlanCache.Lookup(cacheKey, cacheEpoch, qf.entryAdmitted); ok {
			rep := qf.reportFromEntry(ent)
			rep.FusOptim = time.Since(t0)
			sp := root.Child("phase:plancache")
			sp.SetAttr("plancache", "hit")
			sp.SetInt("sections", int64(ent.Sections))
			sp.End()
			mFusNanos.Observe(float64(rep.FusOptim.Nanoseconds()))
			qf.setReport(*rep)
			return ent.Query, rep, nil
		}
	}

	sp := root.Child("phase:plan_probe")
	q, err := eng.Plan(sql)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{}
	if !q.HasUDF() || !qf.Opts.Fusion {
		sp.SetAttr("fusion", "skipped")
		qf.setReport(*rep)
		return q, rep, nil
	}
	if cacheKey != "" {
		rep.PlanCache = "miss"
	} else {
		rep.PlanCache = "off"
	}

	// --- relational inlining (Froid; see inline.go) ---
	// Inlinable UDF call sites become engine expressions before fusion
	// discovery runs: the optimizer sees through those UDFs and the
	// executor never crosses the FFI boundary for them. When the rewrite
	// removes every UDF reference, fusion has nothing left to do — the
	// query is fully inlined and skips straight to execution.
	t0 := time.Now()
	sp = root.Child("phase:inline")
	fullyInlined := qf.inlinePass(eng, q, rep)
	sp.SetInt("inline_sites", int64(inlineSitesOf(rep)))
	sp.End()
	if fullyInlined {
		rep.FusOptim = time.Since(t0)
		mFusNanos.Observe(float64(rep.FusOptim.Nanoseconds()))
		if cacheKey != "" {
			qf.PlanCache.Insert(qf.newPlanEntry(cacheKey, cacheEpoch, sql, q, rep))
		}
		qf.setReport(*rep)
		return q, rep, nil
	}

	// --- discover fusible operators + fusion optimization ---
	type job struct {
		seg  *Segment
		g    *DFG
		secs []*Section
		// secs stays nil in ScalarOnly mode (no section discovery).
	}
	sp = root.Child("phase:dfg_build")
	var jobs []job
	roots := make([]*sqlengine.Plan, 0, len(q.CTEs)+1)
	for i := range q.CTEs {
		roots = append(roots, q.CTEs[i].Plan)
	}
	roots = append(roots, q.Root)
	for _, pr := range roots {
		for _, seg := range FindSegments(pr) {
			g, err := BuildDFG(seg)
			if err != nil {
				continue // untranslatable segment: leave it to the engine
			}
			jobs = append(jobs, job{seg: seg, g: g})
		}
	}
	sp.SetInt("segments", int64(len(jobs)))
	sp.End()

	sp = root.Child("phase:discover")
	kept := jobs[:0]
	nSecs := 0
	for _, j := range jobs {
		if qf.Opts.ScalarOnly {
			kept = append(kept, j)
			continue
		}
		secs := DiscoverSections(j.g, qf.CM)
		secs = qf.filterSections(j.g, secs)
		if len(secs) > 0 {
			j.secs = secs
			nSecs += len(secs)
			kept = append(kept, j)
		}
	}
	jobs = kept
	sp.SetInt("sections", int64(nSecs))
	sp.End()
	rep.FusOptim = time.Since(t0)
	mFusNanos.Observe(float64(rep.FusOptim.Nanoseconds()))

	// --- JIT code generation (no plan surgery yet) ---
	t1 := time.Now()
	sp = root.Child("phase:codegen")
	type realizedJob struct {
		seg  *Segment
		byLo map[int]*fusedResult
	}
	var done []realizedJob
	for _, j := range jobs {
		if qf.Opts.ScalarOnly {
			if err := qf.fuseScalarChains(j.seg, rep); err != nil {
				sp.End()
				return nil, nil, err
			}
			continue
		}
		byLo, err := qf.realizeSections(j.seg, j.g, j.secs, rep, sp)
		if err != nil {
			// Realization failed (unsupported shape): fall back to
			// scalar-chain fusion for this segment.
			if err2 := qf.fuseScalarChains(j.seg, rep); err2 != nil {
				sp.End()
				return nil, nil, err2
			}
			continue
		}
		done = append(done, realizedJob{seg: j.seg, byLo: byLo})
	}
	sp.SetInt("wrappers", int64(len(rep.Sources)))
	sp.SetInt("wrapper_cache_hits", int64(rep.CacheHits))
	sp.End()

	// --- plan rewrite ---
	sp = root.Child("phase:rewrite")
	newRoots := make(map[*sqlengine.Plan]*sqlengine.Plan)
	for _, rj := range done {
		top := qf.spliceSegment(rj.seg, rj.byLo)
		if top != nil && rj.seg.Parent == nil {
			newRoots[rj.seg.Chain[len(rj.seg.Chain)-1]] = top
		}
	}
	// Re-root where a whole root segment was replaced.
	for i := range q.CTEs {
		if nr, ok := newRoots[q.CTEs[i].Plan]; ok {
			q.CTEs[i].Plan = nr
		}
	}
	if nr, ok := newRoots[q.Root]; ok {
		q.Root = nr
	}
	sp.SetInt("sections_fused", int64(rep.Sections))
	sp.End()
	rep.CodeGen = time.Since(t1)
	mGenNanos.Observe(float64(rep.CodeGen.Nanoseconds()))
	if cacheKey != "" {
		// Memoize the full outcome under the epoch observed before
		// planning: if the catalog moved while we planned, the entry is
		// born stale and the next lookup evicts it (sound, just wasted).
		qf.PlanCache.Insert(qf.newPlanEntry(cacheKey, cacheEpoch, sql, q, rep))
	}
	qf.setReport(*rep)
	return q, rep, nil
}

// syncUDFEpoch flushes the wrapper compile cache when any source UDF
// was (re-)defined since the last Process. A fused wrapper's
// trace holds the UDFs it fuses as resolved when it was generated, and
// its cache key is the rendered trace — which names the UDFs but does
// not change with their bodies — so a redefinition would otherwise keep
// serving code compiled against the old definition. (Plan-cache entries
// retire separately through the general catalog epoch.) wrapKey stays:
// stale name→hash mappings only feed breaker bookkeeping for wrappers
// that are no longer emitted. The cache is shared across Variant
// clones, so any variant's flush protects every session.
func (qf *QFusor) syncUDFEpoch(cat *sqlengine.Catalog) { qf.wc.sync(cat) }

// planCacheOn reports whether plan-decision caching is active.
func (qf *QFusor) planCacheOn() bool {
	return qf.Opts.PlanCache && qf.PlanCache != nil
}

// entryAdmitted rejects cached entries that call a wrapper whose
// circuit is open (strictly open or cooling down): the resilient path
// decided that plan shape is failing, so the query must re-plan — and
// the re-plan's registerWrapper consults Breaker.Allow, which suppresses
// the wrapper (or admits the half-open probe) with fresh state.
func (qf *QFusor) entryAdmitted(ent *PlanEntry) bool {
	if qf.Breaker == nil {
		return true
	}
	for _, k := range ent.WrapperKeys {
		if qf.Breaker.Open(k) {
			return false
		}
	}
	return true
}

// reportFromEntry reconstructs a per-query Report from a cache hit.
// SectionCosts is copied: execution writes Actual into the Report's
// copy, never into the entry that concurrent hits read.
func (qf *QFusor) reportFromEntry(ent *PlanEntry) *Report {
	rep := &Report{
		Sections:     ent.Sections,
		Sources:      ent.Sources,
		Wrappers:     ent.Wrappers,
		Tiers:        ent.Tiers,
		Inlined:      ent.Inlined,
		SectionCosts: slices.Clone(ent.SectionCosts),
		PlanCache:    "hit",
	}
	// Only real compiled wrappers count as compile-cache reuse; the
	// "inline:*" pseudo-entries replay an inlining decision, not a
	// wrapper.
	for _, w := range ent.Wrappers {
		if strings.HasPrefix(w, "__qf_") {
			rep.CacheHits++
		}
	}
	return rep
}

// newPlanEntry packages a fresh optimization outcome for the cache. The
// entry keeps its own copy of SectionCosts, since the miss's execution
// goes on to fill Actual in rep's.
func (qf *QFusor) newPlanEntry(key string, epoch int64, sql string, q *sqlengine.Query, rep *Report) *PlanEntry {
	return &PlanEntry{
		SQL:          normalizeSQL(sql),
		Key:          key,
		Epoch:        epoch,
		Query:        q,
		Sections:     rep.Sections,
		Sources:      rep.Sources,
		Wrappers:     rep.Wrappers,
		Tiers:        rep.Tiers,
		Inlined:      rep.Inlined,
		WrapperKeys:  qf.wc.breakerKeys(rep.Wrappers),
		SectionCosts: slices.Clone(rep.SectionCosts),
	}
}

// filterSections applies the option gates to discovered sections.
func (qf *QFusor) filterSections(g *DFG, secs []*Section) []*Section {
	var out []*Section
	for _, s := range secs {
		keep := true
		for _, id := range s.Nodes {
			nd := g.Nodes[id]
			switch nd.Kind {
			case KRelExpr:
				// Constant expressions (table UDF parameters, literals)
				// always ride along; real relational computation needs
				// the offload option.
				if !qf.Opts.Offload && !exprIsConstant(nd.Expr) {
					keep = false
				}
			case KRelFilter:
				if !qf.Opts.Offload {
					keep = false
				}
			case KRelAggNative:
				if !qf.Opts.Offload || !qf.Opts.AggFusion {
					keep = false
				}
			case KRelGroupBy, KUDFAggregate:
				if !qf.Opts.AggFusion {
					keep = false
				}
			}
		}
		if len(s.Reordered) > 0 && !qf.Opts.Reorder {
			keep = false
		}
		if keep {
			out = append(out, s)
		}
	}
	return out
}

// exprIsConstant reports whether e references no columns or fields.
func exprIsConstant(e sqlengine.SQLExpr) bool {
	if e == nil {
		return true
	}
	constant := true
	sqlengine.WalkExpr(e, func(x sqlengine.SQLExpr) bool {
		if _, ok := x.(*sqlengine.ColRef); ok {
			constant = false
			return false
		}
		return true
	})
	return constant
}

// realizeSections JIT-generates every section of a segment, keyed by
// the low end of the plan-node span each one replaces. No plan surgery
// happens here, so a failing realization leaves the query untouched and
// the caller can fall back to scalar-chain fusion.
func (qf *QFusor) realizeSections(seg *Segment, g *DFG, secs []*Section, rep *Report, span *obs.Span) (map[int]*fusedResult, error) {
	byLo := map[int]*fusedResult{}
	for _, s := range secs {
		ws := span.Child("wrapper")
		res, err := qf.generateSection(seg, g, s)
		ws.End()
		if err != nil {
			return nil, err
		}
		if res == nil {
			continue
		}
		if _, dup := byLo[res.SpanLo]; dup {
			continue
		}
		ws.SetAttr("name", res.Wrapper)
		if res.Cached {
			ws.SetAttr("cache", "hit")
			rep.CacheHits++
		} else {
			ws.SetAttr("cache", "miss")
		}
		byLo[res.SpanLo] = res
		rep.Sections++
		rep.Sources = append(rep.Sources, res.Sources...)
		rep.Wrappers = append(rep.Wrappers, res.Wrapper)
		rep.Tiers = append(rep.Tiers, res.Tier)
		if key := sectionKeyOf(g, s.Nodes); key != "" {
			rep.SectionCosts = append(rep.SectionCosts, SectionCost{Wrapper: res.Wrapper, Key: key, Predicted: s.Cost})
		}
		mSections.Inc()
	}
	if len(byLo) == 0 {
		return nil, fmt.Errorf("core: no realizable sections")
	}
	return byLo, nil
}

// spliceSegment reassembles a segment's plan chain, replacing each
// realized section's span with its fused node(s). Returns the new top
// node when the segment's top was the query root (the caller re-roots),
// and wires Parent otherwise.
func (qf *QFusor) spliceSegment(seg *Segment, byLo map[int]*fusedResult) *sqlengine.Plan {
	cursor := seg.Base
	pi := 0
	for pi < len(seg.Chain) {
		if res, ok := byLo[pi]; ok {
			for _, pred := range res.MovedPreds {
				cursor = &sqlengine.Plan{Op: sqlengine.OpFilter,
					Children: []*sqlengine.Plan{cursor}, Schema: schemaOf(cursor),
					Quals: qualsOf(cursor), Exprs: []sqlengine.SQLExpr{pred},
					EstRows: estOf(cursor)}
			}
			for _, fn := range res.Nodes {
				if cursor != nil {
					fn.Children = []*sqlengine.Plan{cursor}
				}
				cursor = fn
			}
			pi = res.SpanHi + 1
			continue
		}
		node := seg.Chain[pi]
		if cursor != nil {
			node.Children = []*sqlengine.Plan{cursor}
		}
		cursor = node
		pi++
	}
	if seg.Parent != nil {
		seg.Parent.Children[seg.ParentSlot] = cursor
	}
	return cursor
}

func schemaOf(p *sqlengine.Plan) data.Schema {
	if p == nil {
		return data.Schema{}
	}
	return p.Schema
}

func qualsOf(p *sqlengine.Plan) []string {
	if p == nil {
		return nil
	}
	return p.Quals
}

func estOf(p *sqlengine.Plan) float64 {
	if p == nil {
		return 1
	}
	return p.EstRows
}

// RewriteSQL runs the pipeline and renders the rewritten plan as SQL
// (path 1 of §5.4). executable reports whether the SQL can be
// re-submitted to this engine. Path 1 is the one consumer that calls a
// fused wrapper by name, so the wrappers of the rendered query are
// published to the engine's catalog (CREATE FUNCTION) here and only
// here; path 2 hands the plan, which holds its wrappers, to the executor.
func (qf *QFusor) RewriteSQL(eng *sqlengine.Engine, sql string) (out string, executable bool, err error) {
	q, _, err := qf.Process(eng, sql)
	if err != nil {
		return "", false, err
	}
	publish := func(p *sqlengine.Plan) {
		for _, u := range p.UDFCalls() {
			if u.Fused {
				eng.Catalog.PutUDF(u)
			}
		}
	}
	for _, cte := range q.CTEs {
		cte.Plan.Walk(publish)
	}
	q.Root.Walk(publish)
	out, executable = RenderSQL(q)
	return out, executable, nil
}

// Query runs the full pipeline and executes the rewritten query
// through the resilient path (circuit breaker + native-plan fallback).
func (qf *QFusor) Query(eng *sqlengine.Engine, sql string) (*data.Table, error) {
	t, _, err := qf.QueryCtx(context.Background(), eng, sql)
	return t, err
}
