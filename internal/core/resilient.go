package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
	"qfusor/internal/pylite"
	"qfusor/internal/resilience"
	"qfusor/internal/sqlengine"
)

// Degradation metrics (obs.Default): how often the optimized path was
// abandoned and why. qfusor.fallbacks stays the reason-agnostic total
// (dashboards from PR 3 keep working); the labeled series break it down
// by cause for /metrics.
var (
	mFallbacks    = obs.Default.Counter("qfusor.fallbacks")
	mBreakerTrips = obs.Default.Counter("qfusor.breaker_trips")
	mBreakerSkips = obs.Default.Counter("qfusor.breaker_open_skips")
	mCancelled    = obs.Default.Counter("qfusor.cancelled")

	mFallbackBreaker = obs.Default.Counter(obs.LabeledName("qfusor.fallbacks", "reason", "breaker_open"))
	mFallbackPanic   = obs.Default.Counter(obs.LabeledName("qfusor.fallbacks", "reason", "panic"))
	mFallbackError   = obs.Default.Counter(obs.LabeledName("qfusor.fallbacks", "reason", "exec_error"))

	// Breaker census gauges, refreshed after every resilient query.
	gBreakerOpen     = obs.Default.Gauge("qfusor.breaker.open")
	gBreakerHalfOpen = obs.Default.Gauge("qfusor.breaker.half_open")
	gBreakerTracked  = obs.Default.Gauge("qfusor.breaker.tracked")
)

// updateBreakerGauges publishes the breaker's circuit census (strictly
// open, half-open, tracked keys) to /metrics. Nil-breaker safe.
func (qf *QFusor) updateBreakerGauges() {
	st := qf.Breaker.Snapshot()
	gBreakerOpen.Set(int64(st.Open))
	gBreakerHalfOpen.Set(int64(st.HalfOpen))
	gBreakerTracked.Set(int64(st.Tracked))
}

// fallbackReason increments the labeled breakdown for one fallback.
func fallbackReason(breakerOpen bool, cause error) {
	switch {
	case breakerOpen:
		mFallbackBreaker.Inc()
	case isPanic(cause):
		mFallbackPanic.Inc()
	default:
		mFallbackError.Inc()
	}
}

func isPanic(err error) bool {
	var pe *resilience.PanicError
	return errors.As(err, &pe)
}

// queryKey is the circuit-breaker key for a query text.
func queryKey(sql string) string {
	h := sha256.Sum256([]byte(sql))
	return "query:" + hex.EncodeToString(h[:16])
}

// QueryCtx is the resilient query path: it runs the full QFusor
// pipeline under ctx and degrades gracefully when the optimized path
// fails. The ladder is fused → native → typed error:
//
//  1. If the per-query circuit breaker is open (the fused path failed
//     repeatedly for this SQL), the native plan runs directly.
//  2. Otherwise the fused plan runs; any failure that is not a
//     cancellation — wrapper error, injected fault, worker crash,
//     recovered panic — trips the breaker and transparently re-executes
//     the query on the unfused native plan.
//  3. A cancellation (context done, deadline, PyLite step budget) is
//     returned as a *resilience.QueryError with Stage "cancelled" and
//     is never retried: the caller asked the query to stop.
//  4. If the native plan also fails, both causes come back joined in a
//     *resilience.QueryError with Stage "fallback".
//
// Fallbacks are recorded on the returned Report (Fallback /
// FallbackReason) and the qfusor.fallbacks / qfusor.breaker_* metrics.
func (qf *QFusor) QueryCtx(ctx context.Context, eng *sqlengine.Engine, sql string) (*data.Table, *Report, error) {
	// Flight recorder: the diagnostics server's trace-all switch makes
	// every query build a span tree; otherwise root stays nil and every
	// span hook is a pointer compare (the nil-tracer guarantee).
	var root *obs.Span
	if obs.DefaultFlight.TraceAll() {
		root = obs.NewSpan("query")
	}
	r, _, err := qf.queryRecorded(ctx, eng, sql, "fused", root)
	return r.table, r.rep, err
}

// queryRun is what one pass down the ladder produced beyond its error.
type queryRun struct {
	table *data.Table
	rep   *Report // never nil once queryResilient returns
	// plan is the plan that produced table: the rewritten one, or the
	// native one after a fallback.
	plan *sqlengine.Query
	// udfs is the exact per-UDF work of every plan the query executed
	// (the failed fused attempt and the native rerun both count).
	udfs []ffi.Usage
}

// queryRecorded runs the ladder once under a ledger (the one the
// embedder attached to ctx, or one opened here) and files the outcome
// with the flight recorder under the given path label. QueryCtx and
// QueryAnalyzeCtx are both this; they differ in the root they pass and
// in what they return.
func (qf *QFusor) queryRecorded(ctx context.Context, eng *sqlengine.Engine, sql, path string, root *obs.Span) (queryRun, *obs.QueryRecord, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	led := obs.LedgerFromContext(ctx)
	if led == nil && obs.AccountingEnabled() {
		led = obs.NewLedger()
		ctx = obs.ContextWithLedger(ctx, led)
	}
	adm := admissionSpan(ctx, root)
	r, err := qf.queryResilient(ctx, eng, sql, root)
	root.End()
	qf.updateBreakerGauges()
	rec := qf.recordFlight(path, sql, start, r.table, r.rep, err, root, led, adm)
	return r, rec, err
}

// admissionSpan copies serving-plane admission metadata (when ctx
// carries it) onto the query's span tree as a phase:admission span and
// returns it for the flight record. Queries that never crossed the
// admission controller (direct API callers, the CLIs without -serve)
// carry none and pay one context lookup.
func admissionSpan(ctx context.Context, root *obs.Span) *obs.AdmissionInfo {
	ai := obs.AdmissionFromContext(ctx)
	if ai == nil {
		return nil
	}
	sp := root.Child("phase:admission")
	sp.SetInt("wait_ns", ai.Wait.Nanoseconds())
	sp.SetInt("queue_depth", int64(ai.QueueDepth))
	if ai.Tenant != "" {
		sp.SetAttr("tenant", ai.Tenant)
	}
	if ai.Session != "" {
		sp.SetAttr("session", ai.Session)
	}
	sp.End()
	return ai
}

// recordFlight stores one completed query in the process flight
// recorder (nil-safe span snapshot; no-op cost is one mutex-guarded
// ring write) and returns the record.
func (qf *QFusor) recordFlight(path, sql string, start time.Time, t *data.Table, rep *Report, err error, root *obs.Span, led *obs.ResourceLedger, adm *obs.AdmissionInfo) *obs.QueryRecord {
	rec := &obs.QueryRecord{
		QID:       led.QID(),
		SQL:       sql,
		Path:      path,
		Start:     start,
		Duration:  time.Since(start),
		Trace:     root.Snapshot(),
		Admission: adm,
	}
	if t != nil {
		rec.Rows = t.NumRows()
	}
	if rep != nil {
		rec.Sections = rep.Sections
		rec.Wrappers = rep.Wrappers
		rec.CacheHits = rep.CacheHits
		rec.PlanCache = rep.PlanCache
		rec.Fallback = rep.Fallback
		rec.FallbackReason = rep.FallbackReason
		rec.BreakerOpen = rep.FallbackReason == breakerOpenReason
		for _, d := range rep.Inlined {
			rec.Inlined = append(rec.Inlined, obs.InlineInfo{
				UDF: d.UDF, Inlinable: d.Inlinable, Reason: d.Reason, Sites: d.Sites,
			})
		}
		if rep.Fallback {
			led.AddFallback()
		}
	}
	if err != nil {
		rec.Err = err.Error()
	}
	rec.Resources = led.Snapshot()
	// Funnel order matters: the detector writes rec.Regressions, so it
	// runs before Record hands the (then-immutable) record to readers;
	// the query log runs after so its line carries the assigned ID.
	obs.DefaultRegressions.Observe(rec)
	obs.DefaultFlight.Record(rec)
	obs.DefaultQueryLog.Emit(rec)
	return rec
}

// breakerOpenReason is the FallbackReason for breaker-routed queries.
const breakerOpenReason = "circuit breaker open"

// queryResilient is the ladder body (split out so the flight recorder
// wraps exactly one attempt).
func (qf *QFusor) queryResilient(ctx context.Context, eng *sqlengine.Engine, sql string, root *obs.Span) (queryRun, error) {
	key := queryKey(sql)
	led := obs.LedgerFromContext(ctx)
	if qf.Breaker != nil && !qf.Breaker.Allow(key) {
		mBreakerSkips.Inc()
		r := queryRun{rep: &Report{Fallback: true, FallbackReason: breakerOpenReason}}
		err := qf.execNative(ctx, eng, sql, root, &r)
		led.MarkPhase("execute")
		qf.setReport(*r.rep)
		if err != nil {
			return r, qerr(sql, "native", err)
		}
		mFallbacks.Inc()
		fallbackReason(true, nil)
		return r, nil
	}

	r, ferr := qf.queryFusedOnce(ctx, eng, sql, root)
	if r.rep == nil {
		r.rep = &Report{}
	}
	if ferr == nil {
		if qf.Breaker != nil {
			qf.Breaker.Success(key)
			for _, k := range r.rep.wrapKeysUsed(qf) {
				qf.Breaker.Success(k)
			}
		}
		return r, nil
	}
	if isCancellation(ctx, ferr) {
		mCancelled.Inc()
		return r, qerr(sql, "cancelled", ferr)
	}

	// The optimized path failed on a live query: record the failure
	// against the query and every wrapper it used, then degrade to the
	// engine's native plan.
	if qf.Breaker != nil {
		if qf.Breaker.Failure(key) {
			mBreakerTrips.Inc()
		}
		for _, k := range r.rep.wrapKeysUsed(qf) {
			if qf.Breaker.Failure(k) {
				mBreakerTrips.Inc()
			}
		}
	}
	// A failing plan must not be served from the plan-decision cache
	// again: evict this query's entry and every entry calling any of the
	// wrappers involved (a wrapper whose breaker is accumulating
	// failures — or has just opened — may be cached under other queries
	// too).
	qf.planCacheEvictFailure(eng, sql, r.rep)
	led.AddRetry()
	fb := root.Child("phase:fallback")
	fb.SetAttr("cause", ferr.Error())
	nerr := qf.execNative(ctx, eng, sql, fb, &r)
	fb.End()
	led.MarkPhase("fallback")
	if nerr != nil {
		if isCancellation(ctx, nerr) {
			mCancelled.Inc()
			return r, qerr(sql, "cancelled", nerr)
		}
		// Both paths failed: surface both causes in one chain.
		return r, qerr(sql, "fallback", errors.Join(ferr, nerr))
	}
	mFallbacks.Inc()
	fallbackReason(false, ferr)
	r.rep.Fallback = true
	r.rep.FallbackReason = ferr.Error()
	qf.setReport(*r.rep)
	return r, nil
}

// queryFusedOnce runs one attempt of the optimized path (Process +
// execute) with panic containment, and — on success — records each
// fused section's measured cost next to its prediction. The Report is
// returned even on failure so the caller knows which wrappers were
// involved.
func (qf *QFusor) queryFusedOnce(ctx context.Context, eng *sqlengine.Engine, sql string, root *obs.Span) (r queryRun, err error) {
	defer resilience.Recover(&err)
	led := obs.LedgerFromContext(ctx)
	r.plan, r.rep, err = qf.ProcessTraced(eng, sql, root)
	led.MarkPhase("optimize")
	if err != nil {
		return r, err
	}
	sp := root.Child("phase:execute")
	r.table, r.udfs, err = eng.ExecuteTracedCtx(ctx, r.plan, sp)
	sp.End()
	led.MarkPhase("execute")
	if err == nil {
		observeSectionCosts(r.rep, r.udfs)
	}
	return r, err
}

// observeSectionCosts fills each section's measured cost: its wrapper's
// wall plus boundary-conversion time in this query. The Usage comes
// from the query's own clone of the wrapper (morsel workers fold into it
// at the barrier), so concurrent queries sharing the wrapper never leak
// into each other's measurement.
func observeSectionCosts(rep *Report, used []ffi.Usage) {
	for i := range rep.SectionCosts {
		sc := &rep.SectionCosts[i]
		for _, u := range used {
			if u.Name == sc.Wrapper && u.WallNanos+u.WrapNanos > 0 {
				sc.Actual = float64(u.WallNanos + u.WrapNanos)
			}
		}
	}
}

// execNative plans and executes sql without any QFusor rewrite, with
// panic containment (the degradation target must not be able to crash
// the process either), leaving the result, the native plan and the UDF
// usage (added to any a failed fused attempt left) on r. span, when
// non-nil, receives the native plan's operator spans.
func (qf *QFusor) execNative(ctx context.Context, eng *sqlengine.Engine, sql string, span *obs.Span, r *queryRun) (err error) {
	defer resilience.Recover(&err)
	q, err := eng.Plan(sql)
	if err != nil {
		return err
	}
	t, used, err := eng.ExecuteTracedCtx(ctx, q, span)
	r.udfs = append(r.udfs, used...)
	if err != nil {
		return err
	}
	r.table, r.plan = t, q
	return nil
}

// isCancellation reports whether err (or the context itself) represents
// a caller-requested stop rather than a fault: context cancellation,
// deadline expiry, or the PyLite interrupt/step budget. These are never
// retried on the native plan — re-running a cancelled query would
// violate the caller's request, and an exhausted step budget stays
// exhausted.
func isCancellation(ctx context.Context, err error) bool {
	if ctx != nil && ctx.Err() != nil {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ie *pylite.InterruptError
	return errors.As(err, &ie)
}

// qerr wraps err as a typed query error unless it already is one.
func qerr(sql, stage string, err error) error {
	var qe *resilience.QueryError
	if errors.As(err, &qe) {
		return err
	}
	return &resilience.QueryError{SQL: sql, Stage: stage, Err: err}
}

// planCacheEvictFailure drops the plan-cache entries implicated in a
// fused-path failure: the query's own entry plus any entry whose plan
// calls one of the wrappers this query used. Nil-safe / off-safe.
func (qf *QFusor) planCacheEvictFailure(eng *sqlengine.Engine, sql string, rep *Report) {
	if !qf.planCacheOn() {
		return
	}
	qf.PlanCache.Invalidate(planCacheKey(eng, qf.Opts, sql))
	for _, k := range rep.wrapKeysUsed(qf) {
		qf.PlanCache.InvalidateWrapper(k)
	}
}

// wrapKeysUsed maps the wrappers this query's Process registered (or
// reused) to their breaker keys.
func (rep *Report) wrapKeysUsed(qf *QFusor) []string {
	return qf.wc.breakerKeys(rep.Wrappers)
}
