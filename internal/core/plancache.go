package core

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"time"

	"qfusor/internal/obs"
	"qfusor/internal/sqlengine"
)

// Plan-decision caching (the paper's §6.4.5 "QFusor-cache" direction,
// taken one level up from the wrapper compile cache): the QFusor
// front-end — EXPLAIN probing, DFG construction (Alg. 1), fusible-
// section discovery (Alg. 2), wrapper codegen dispatch and the plan
// rewrite — is pure in (SQL text, catalog contents, engine profile,
// option switches). For repeated queries, the entire optimization
// outcome can therefore be memoized: the rewritten executable plan, the
// wrappers it calls, and the cost estimate of each fused section. A hit
// skips every front-end phase and goes straight to execution.
//
// Soundness comes from two invalidation channels:
//
//  1. Catalog epoch: every DDL/DML/UDF-(re)registration bumps
//     sqlengine.Catalog's epoch; an entry stores the epoch it was
//     planned under and a lookup under any other epoch evicts it.
//  2. Circuit breaker: an entry whose wrapper (or whose query key) has
//     an open circuit is never served — the resilient path decided this
//     plan shape is failing, so it must re-plan (which suppresses the
//     failing wrapper). Fused-path failures also evict eagerly.

// Plan-cache metrics (obs.Default). hits/misses split the lookup
// outcomes; evictions counts capacity-driven removals; invalidations
// counts correctness-driven removals (epoch moved, breaker opened,
// fused execution failed, explicit purge).
var (
	mPlanHits  = obs.Default.Counter("qfusor.plancache.hits")
	mPlanMiss  = obs.Default.Counter("qfusor.plancache.misses")
	mPlanEvict = obs.Default.Counter("qfusor.plancache.evictions")
	mPlanInval = obs.Default.Counter("qfusor.plancache.invalidations")
	gPlanSize  = obs.Default.Gauge("qfusor.plancache.size")
)

// DefaultPlanCacheCap bounds the plan cache when no explicit size is
// configured. Entries are whole optimized plans, so a few hundred is
// plenty for realistic repeated-query working sets.
const DefaultPlanCacheCap = 256

// PlanEntry is one memoized optimization outcome.
type PlanEntry struct {
	// SQL is the normalized query text (whitespace-collapsed).
	SQL string `json:"sql"`
	// Key is the full cache key (engine profile + workers + option
	// fingerprint + normalized SQL).
	Key string `json:"-"`
	// Epoch is the catalog generation the decision was made under.
	Epoch int64 `json:"epoch"`
	// Query is the rewritten executable plan. The tree is read-only
	// after planning (executors never mutate plan nodes), so concurrent
	// executions — including under the morsel executor — share it.
	Query *sqlengine.Query `json:"-"`
	// Sections / Sources / Wrappers mirror the Report of the miss that
	// created the entry.
	Sections int      `json:"sections"`
	Sources  []string `json:"-"`
	Wrappers []string `json:"wrappers,omitempty"`
	// Tiers records, aligned with Wrappers, which execution tier each
	// wrapper was planned onto ("vm", "closure", "mixed", or "inlined"
	// for the pseudo-wrapper entries of inlined UDFs) — so a cache hit's
	// \analyze output and ledger attribution match a fresh plan's.
	Tiers []Tier `json:"tiers,omitempty"`
	// Inlined replays the relational-inlining decisions of the miss that
	// created the entry (tier=inlined call sites are baked into Query).
	Inlined []InlineDecision `json:"inlined,omitempty"`
	// WrapperKeys are the breaker keys ("wrapper:<hash>") of Wrappers;
	// an open circuit on any of them disqualifies the entry.
	WrapperKeys []string `json:"-"`
	// SectionCosts holds each section's predicted cost; Actual stays 0
	// here (a hit's Report gets a copy that execution fills).
	SectionCosts []SectionCost `json:"section_costs,omitempty"`
	// Hits counts how often this entry was served.
	Hits int64 `json:"hits"`
	// Created / LastUsed timestamp the entry for /debug/plancache.
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
}

// PlanCache is a size-capped LRU of plan decisions. All methods are
// safe for concurrent use; lookups and inserts are O(1).
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *PlanEntry
	byKey   map[string]*list.Element
	hits    int64
	misses  int64
	evicted int64
	inval   int64
}

// NewPlanCache builds a plan cache holding at most cap entries
// (cap <= 0 uses DefaultPlanCacheCap).
func NewPlanCache(cap int) *PlanCache {
	if cap <= 0 {
		cap = DefaultPlanCacheCap
	}
	return &PlanCache{cap: cap, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Cap returns the configured capacity.
func (pc *PlanCache) Cap() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.cap
}

// SetCap resizes the cache, evicting LRU entries if it shrank.
func (pc *PlanCache) SetCap(cap int) {
	if cap <= 0 {
		cap = DefaultPlanCacheCap
	}
	pc.mu.Lock()
	pc.cap = cap
	for pc.ll.Len() > pc.cap {
		pc.removeLocked(pc.ll.Back(), &pc.evicted, mPlanEvict)
	}
	pc.mu.Unlock()
}

// Len returns the number of live entries.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.ll.Len()
}

// Lookup returns the entry for key if it was planned under the current
// catalog epoch and the admit predicate (nil = always) accepts it. An
// entry from an older epoch — the catalog moved, so every decision in
// it is suspect — or one the predicate rejects (e.g. a wrapper's
// circuit opened) is removed, counted as an invalidation, and reported
// as a miss.
func (pc *PlanCache) Lookup(key string, epoch int64, admit func(*PlanEntry) bool) (*PlanEntry, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.byKey[key]
	if !ok {
		pc.misses++
		mPlanMiss.Inc()
		return nil, false
	}
	ent := el.Value.(*PlanEntry)
	if ent.Epoch != epoch || (admit != nil && !admit(ent)) {
		pc.removeLocked(el, &pc.inval, mPlanInval)
		pc.misses++
		mPlanMiss.Inc()
		return nil, false
	}
	pc.ll.MoveToFront(el)
	ent.Hits++
	ent.LastUsed = time.Now()
	pc.hits++
	mPlanHits.Inc()
	return ent, true
}

// Insert memoizes an entry, evicting from the LRU end past capacity.
// Re-inserting an existing key replaces the entry (a concurrent miss on
// the same query may have raced us here; both decisions are equivalent).
func (pc *PlanCache) Insert(ent *PlanEntry) {
	now := time.Now()
	ent.Created, ent.LastUsed = now, now
	pc.mu.Lock()
	if el, ok := pc.byKey[ent.Key]; ok {
		el.Value = ent
		pc.ll.MoveToFront(el)
		n := pc.ll.Len()
		pc.mu.Unlock()
		gPlanSize.Set(int64(n))
		return
	}
	pc.byKey[ent.Key] = pc.ll.PushFront(ent)
	for pc.ll.Len() > pc.cap {
		pc.removeLocked(pc.ll.Back(), &pc.evicted, mPlanEvict)
	}
	n := pc.ll.Len()
	pc.mu.Unlock()
	gPlanSize.Set(int64(n))
}

// Invalidate removes the entry for key (no-op when absent), counting an
// invalidation. Used when a cached plan's fused execution failed: the
// next occurrence must re-plan (and the breaker may suppress the
// failing wrapper when it does).
func (pc *PlanCache) Invalidate(key string) {
	pc.mu.Lock()
	if el, ok := pc.byKey[key]; ok {
		pc.removeLocked(el, &pc.inval, mPlanInval)
	}
	pc.mu.Unlock()
}

// InvalidateWrapper removes every entry whose plan calls the wrapper
// identified by breaker key wk ("wrapper:<hash>"). Driven by the
// resilient path when a wrapper's circuit records failures — a plan
// served from cache must never resurrect a wrapper the breaker is
// holding open.
func (pc *PlanCache) InvalidateWrapper(wk string) int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var doomed []*list.Element
	for el := pc.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*PlanEntry)
		for _, k := range ent.WrapperKeys {
			if k == wk {
				doomed = append(doomed, el)
				break
			}
		}
	}
	for _, el := range doomed {
		pc.removeLocked(el, &pc.inval, mPlanInval)
	}
	return len(doomed)
}

// Purge empties the cache, counting invalidations.
func (pc *PlanCache) Purge() {
	pc.mu.Lock()
	for pc.ll.Len() > 0 {
		pc.removeLocked(pc.ll.Back(), &pc.inval, mPlanInval)
	}
	pc.mu.Unlock()
	gPlanSize.Set(0)
}

// removeLocked unlinks an element, crediting the removal to the given
// local counter and metric. Caller holds pc.mu.
func (pc *PlanCache) removeLocked(el *list.Element, count *int64, metric *obs.Counter) {
	if el == nil {
		return
	}
	ent := el.Value.(*PlanEntry)
	delete(pc.byKey, ent.Key)
	pc.ll.Remove(el)
	*count++
	metric.Inc()
	gPlanSize.Set(int64(pc.ll.Len()))
}

// PlanCacheStats is a point-in-time summary for diagnostics surfaces
// (/debug/plancache, DB.PlanCacheStats, tests).
type PlanCacheStats struct {
	Size          int   `json:"size"`
	Cap           int   `json:"cap"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// Stats returns the cache's cumulative counters. Nil-safe (a disabled
// cache reads as empty).
func (pc *PlanCache) Stats() PlanCacheStats {
	if pc == nil {
		return PlanCacheStats{}
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Size: pc.ll.Len(), Cap: pc.cap,
		Hits: pc.hits, Misses: pc.misses,
		Evictions: pc.evicted, Invalidations: pc.inval,
	}
}

// PlanCacheSnapshot is the /debug/plancache payload: the counters plus
// every live entry, most recently used first.
type PlanCacheSnapshot struct {
	PlanCacheStats
	Entries []*PlanEntry `json:"entries"`
}

// Snapshot returns stats plus entry listings (entries are copies — the
// live plan trees are not exposed). Nil-safe.
func (pc *PlanCache) Snapshot() PlanCacheSnapshot {
	if pc == nil {
		return PlanCacheSnapshot{Entries: []*PlanEntry{}}
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	snap := PlanCacheSnapshot{
		PlanCacheStats: PlanCacheStats{
			Size: pc.ll.Len(), Cap: pc.cap,
			Hits: pc.hits, Misses: pc.misses,
			Evictions: pc.evicted, Invalidations: pc.inval,
		},
		Entries: []*PlanEntry{},
	}
	for el := pc.ll.Front(); el != nil; el = el.Next() {
		ent := *el.Value.(*PlanEntry)
		ent.Query = nil
		snap.Entries = append(snap.Entries, &ent)
	}
	return snap
}

// normalizeSQL trims surrounding whitespace and one trailing semicolon,
// so a repeat that differs only there shares a cache entry. Nothing
// inside the statement changes: whitespace and case inside a string
// literal are part of the query.
func normalizeSQL(sql string) string {
	return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
}

// optionsFingerprint encodes the technique switches that shape plan
// decisions. The plan cache's own toggle stays out — it does not change
// what the optimizer would decide.
func optionsFingerprint(o Options) string {
	var b strings.Builder
	flag := func(on bool, c byte) {
		if on {
			b.WriteByte(c)
		}
	}
	flag(o.Fusion, 'F')
	flag(o.ScalarOnly, 'S')
	flag(o.Offload, 'O')
	flag(o.Reorder, 'R')
	flag(o.AggFusion, 'A')
	flag(o.Cache, 'C')
	// Tier pinning changes which execution tier a cached plan's wrappers
	// carry, so pinned tiers get their own cache partitions ("auto"/""
	// stays unmarked — the default decision).
	flag(o.Tier == TierVM, 'V')
	flag(o.Tier == TierClosure, 'v')
	return b.String()
}

// planCacheKey derives the full cache key for sql against an engine:
// profile identity (name encodes the execution model + transport),
// resolved worker count (parallelism shifts cost-model terms and
// partitioning choices), option fingerprint, then the normalized text.
// The catalog epoch is deliberately *not* part of the key string — it
// is checked at lookup so a stale entry is detected and evicted rather
// than stranded unreachable.
func planCacheKey(eng *sqlengine.Engine, o Options, sql string) string {
	var b strings.Builder
	b.WriteString(eng.Name)
	b.WriteByte('/')
	b.WriteString(eng.Mode.String())
	b.WriteByte('/')
	// Workers resolves 0=auto to the live core count.
	b.WriteString(strconv.Itoa(eng.Workers()))
	b.WriteByte('/')
	b.WriteString(optionsFingerprint(o))
	b.WriteByte('|')
	b.WriteString(normalizeSQL(sql))
	return b.String()
}
