package main

import (
	"bytes"
	"context"
	"math"
	"time"

	"qfusor/internal/core"
	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
	"qfusor/internal/pylite"
	"qfusor/internal/resilience"
	"qfusor/internal/sqlengine"
	"qfusor/internal/workload"
)

// Per-layer numbers come from three sources, all outside the program:
// deltas of the public obs counters over a window, spans around staged
// calls, and timed calls into each layer's public functions.

// perLayer produces every per-layer metric for the workload. w is a
// measured window (spans off) whose counters and per-template medians
// the traced passes are compared with.
func (r *runner) perLayer(w window, info map[string]any) map[string]float64 {
	m := map[string]float64{}
	ops := float64(len(w.recs))
	perOp := func(counter string) float64 { return ratio(float64(w.obs.Counters[counter]), ops) }

	// --- counters over the window ---
	m["sqlengine.morsels_per_op"] = perOp("engine.morsels")
	m["sqlengine.rows_out_per_op"] = perOp("engine.rows_out")
	m["sqlengine.vec_cse_hits_per_op"] = perOp("engine.vec_cse_hits")
	m["ffi.calls_per_op"] = perOp("ffi.udf.calls")
	m["ffi.rows_in_per_op"] = perOp("ffi.udf.rows_in")
	m["ffi.boundary_bytes_per_op"] = perOp("ffi.boundary.bytes_in") + perOp("ffi.boundary.bytes_out")
	m["ffi.ipc_roundtrips_per_op"] = perOp("ffi.ipc.roundtrips")
	m["ffi.ipc_bytes_per_op"] = perOp("ffi.ipc.bytes")
	m["pylite.interp_calls_per_op"] = perOp("pylite.interp_calls")
	m["pylite.compiled_calls_per_op"] = perOp("pylite.compiled_calls")
	m["pylite.vm_rows_per_op"] = perOp("qfusor.vm.rows")
	m["pylite.vm_bail_share"] = ratio(float64(w.obs.Counters["qfusor.vm.bail_rows"]), float64(w.obs.Counters["qfusor.vm.rows"]))
	writes, fallbacks := 0.0, 0.0
	for _, rec := range w.recs {
		if rec.kind == opExec {
			writes++
		}
		if rec.out.fallback {
			fallbacks++
		}
	}
	m["core.plancache_hit_ratio"] = planCacheRatio(w.recs)
	m["core.plancache_invalidations_per_write"] = ratio(float64(w.obs.Counters["qfusor.plancache.invalidations"]), writes)
	m["core.fallback_share"] = ratio(fallbacks, ops)

	// --- traced passes ---
	// The workload's own path runs under the window's load shape; the
	// other path (HTTP for embedded workloads, staged in-process calls
	// for the served one) is probed by one caller, so that every layer's
	// cost is measured on every workload's operations.
	t := newTracer(r.clients())
	own, _ := r.phase(r.clients(), 0, min(tracedMax, r.opt.window/2), r.ownPath(t))
	probe := r.otherPath(t)
	servedRecs := probe
	if r.def.served {
		servedRecs = own
	}
	spans := t.all()
	self := selfTimes(spans)
	inProc := self["op"] + self["parse"] + self["process"] + self["fusoptim"] + self["codegen"] + self["execute"]
	m["trace.stage_share.parse"] = ratio(self["parse"], inProc)
	m["trace.stage_share.process"] = ratio(self["process"]+self["fusoptim"]+self["codegen"], inProc)
	m["trace.stage_share.execute"] = ratio(self["execute"], inProc)
	overHTTP := self["http_roundtrip"] + self["admission_wait"] + self["server_exec"]
	m["trace.stage_share.admission_wait"] = ratio(self["admission_wait"], overHTTP)
	m["trace.stage_share.server_exec"] = ratio(self["server_exec"], overHTTP)
	m["trace.stage_share.server_overhead"] = ratio(self["http_roundtrip"], overHTTP)

	// Coverage and overhead compare the traced pass that ran the
	// workload's own path with the untraced window, template by template.
	winMed := medians(byTemplate(w.recs, len(r.in.templates)))
	stagedBy, totalBy := make([][]float64, len(winMed)), make([][]float64, len(winMed))
	for _, rec := range own {
		if rec.ok {
			stagedBy[rec.tmpl] = append(stagedBy[rec.tmpl], ms(rec.out.staged))
			totalBy[rec.tmpl] = append(totalBy[rec.tmpl], ms(rec.out.latency))
		}
	}
	var covered, slowdown []float64
	for i, single := range winMed {
		if single > 0 && len(stagedBy[i]) > 0 {
			total := median(totalBy[i])
			slowdown = append(slowdown, total/single)
			if r.def.served {
				// The stages are cut out of the round trip itself, so
				// they cover it by construction.
				single = total
			}
			covered = append(covered, median(stagedBy[i])/single)
		}
	}
	// The median template, so one noisy template cannot carry either.
	m["trace.coverage"] = median(covered)
	m["trace.overhead_pct"] = (median(slowdown) - 1) * 100

	// --- server and admission, from the response bodies ---
	var overhead, small, large []float64
	var respBytes, queued, rejected float64
	for _, rec := range servedRecs {
		respBytes += float64(rec.out.respBytes)
		if rec.out.waitNS > 0 {
			queued++
		}
		if rec.out.status == 429 || rec.out.status == 503 {
			rejected++
		}
		if !rec.ok || rec.kind == opExec {
			continue // /v1/exec replies carry no timings
		}
		o := ms(rec.out.latency) - float64(rec.out.execNS+rec.out.waitNS)/1e6
		overhead = append(overhead, o)
		switch {
		case rec.out.rows <= smallRows:
			small = append(small, o)
		case rec.out.rows >= largeRows:
			large = append(large, o)
		}
	}
	n := float64(len(servedRecs))
	m["server.overhead_ms_p50"] = median(overhead)
	m["server.overhead_small_ms_p50"] = median(small)
	m["server.overhead_large_ms_p50"] = median(large)
	m["server.resp_bytes_per_op"] = ratio(respBytes, n)
	m["resilience.queued_share"] = ratio(queued, n)
	m["resilience.rejected_share"] = ratio(rejected, n)

	r.engineProbes(m, w)
	microProbes(r.opt.seed, m)
	m["runtime.peak_rss_mb"] = peakRSSMB()

	path, err := writeTrace(r.opt.outDir, traceFile{Workload: r.def.Name, Seed: r.opt.seed, Host: hostFingerprint(), Spans: spans})
	if err != nil {
		r.fail("write trace: %v", err)
	}
	info["trace_file"], info["spans"] = path, len(spans)
	info["window_ops"], info["traced_ops"], info["probe_ops"] = len(w.recs), len(own), len(probe)
	return m
}

// Responses up to smallRows rows count as small (single-row reads,
// aggregates), from largeRows rows as large (projections): the first is
// bound by per-request cost, the second by result encoding.
const (
	smallRows = 16
	largeRows = 100
)

// ownPath traces the path the workload's window takes.
func (r *runner) ownPath(t *tracer) execFn {
	if r.def.served {
		return roundTrips(t, r.drv)
	}
	return r.staged(t)
}

// otherPath has one caller replay a few sweeps through the path the
// window does not take — HTTP in front of the same instance for an
// embedded workload, staged in-process calls for the served one — so
// that every layer's cost is measured on every workload's operations.
// Row hashes depend on the path (JSON cells against engine values), so
// these operations are checked for errors only.
func (r *runner) otherPath(t *tracer) []record {
	saved := r.expected
	r.expected = nil
	defer func() { r.expected = saved }()
	if r.def.served {
		recs, _ := r.phase(1, 4*r.in.sweep, 0, r.staged(t))
		return recs
	}
	srv, base, err := startServer(r.inst)
	if err != nil {
		r.fail("served probe: %v", err)
		return nil
	}
	defer srv.Close()
	d, err := newServed(base)
	if err != nil {
		r.fail("served probe: %v", err)
		return nil
	}
	defer d.close()
	recs, _ := r.phase(1, 2*r.in.sweep, 0, roundTrips(t, []driver{d}))
	return recs
}

// minReps is the least number of timed calls behind a reported median
// (the smoke test lowers it).
var minReps = 200

// engineProbes times sqlengine's and core's public entry points on the
// workload's own texts and instance, one caller, everything warm.
func (r *runner) engineProbes(m map[string]float64, w window) {
	eng, qf := r.inst.Eng, r.inst.QF
	var texts []string
	var rows, share []float64 // per text: input rows, share of the window's operations
	count := make([]float64, len(r.in.templates))
	for _, rec := range w.recs {
		count[rec.tmpl]++
	}
	for t, tm := range r.in.templates {
		if len(tm.Texts) > 0 {
			texts = append(texts, tm.Texts[0])
			rows = append(rows, float64(tm.Rows))
			share = append(share, ratio(count[t], float64(len(w.recs))))
		}
	}
	reps := (minReps + len(texts) - 1) / len(texts)

	var parse, plan, hit, miss, fusoptim []float64
	var codegenNS, frontNS, sections, inlineSites float64
	for ti, sql := range texts {
		parse = append(parse, timeReps(2, reps, func() { sqlengine.ParseSQL(sql) })...) //nolint:errcheck // texts parsed in verify
		plan = append(plan, timeReps(2, reps, func() { eng.Plan(sql) })...)             //nolint:errcheck
		for i := 0; i < reps+2; i++ {
			start := time.Now()
			_, rep, err := qf.Process(eng, sql)
			d := float64(time.Since(start).Nanoseconds())
			if err == nil && rep.PlanCache == "hit" && i >= 2 {
				hit = append(hit, d)
			}
			if err == nil && i == 0 {
				// What the plan of an average operation holds: each
				// template's plan weighted by its share of the window.
				sections += share[ti] * float64(rep.Sections)
				for _, d := range rep.Inlined {
					inlineSites += share[ti] * float64(d.Sites)
				}
			}
		}
		for i := 0; i < reps; i++ {
			qf.PlanCache.Purge()
			start := time.Now()
			_, rep, err := qf.Process(eng, sql)
			d := float64(time.Since(start).Nanoseconds())
			if err == nil && rep.PlanCache == "miss" {
				miss = append(miss, d)
				fusoptim = append(fusoptim, float64(rep.FusOptim.Nanoseconds()))
				codegenNS += float64(rep.CodeGen.Nanoseconds())
				frontNS += float64((rep.FusOptim + rep.CodeGen).Nanoseconds())
			}
		}
	}
	m["sqlengine.parse_us_p50"] = median(parse) / 1e3
	m["sqlengine.plan_us_p50"] = median(plan) / 1e3
	m["core.process_hit_us_p50"] = median(hit) / 1e3
	m["core.process_miss_us_p50"] = median(miss) / 1e3
	m["core.fusoptim_us_p50"] = median(fusoptim) / 1e3
	// Code generation is reported as its share of front-end time on
	// misses, not as a time: fully inlined plans generate no code, so on
	// inline_relational the time is 0 on every run by construction.
	m["core.codegen_share"] = ratio(codegenNS, frontNS)
	m["core.sections_per_op"] = sections
	m["core.inline_sites_per_op"] = inlineSites

	// Execution alone: the native plan against the rewritten one, at
	// least nativeRuns executions each.
	const nativeRuns = 5
	var native, fused, speedup []float64
	var rowsIn, fusedSec float64
	shortest, shortestMS := "", math.Inf(1)
	for i, sql := range texts {
		nq, err := eng.Plan(sql)
		if err != nil {
			continue
		}
		fq, _, err := qf.Process(eng, sql)
		if err != nil {
			continue
		}
		nat := median(timeReps(0, nativeRuns, func() { eng.Execute(nq) })) / 1e6 //nolint:errcheck // verified in warm-up
		fus := median(timeReps(1, nativeRuns, func() { eng.Execute(fq) })) / 1e6 //nolint:errcheck
		native, fused, speedup = append(native, nat), append(fused, fus), append(speedup, nat/fus)
		rowsIn += rows[i]
		fusedSec += fus / 1e3
		if fus < shortestMS {
			shortest, shortestMS = sql, fus
		}
	}
	m["sqlengine.exec_native_ms_geomean"] = geomean(native)
	m["core.exec_fused_ms_geomean"] = geomean(fused)
	m["core.speedup_vs_native"] = geomean(speedup)
	m["sqlengine.exec_rows_per_s"] = ratio(rowsIn, fusedSec)

	// Resource accounting on against off, interleaved, on the shortest
	// template — where a fixed per-query cost is most visible.
	var on, off []float64
	ctx := context.Background()
	for i := 0; i < 2*20+4; i++ {
		enabled := i%2 == 0
		obs.SetAccounting(enabled)
		start := time.Now()
		r.inst.QueryFusedCtx(ctx, shortest) //nolint:errcheck // verified in warm-up
		d := float64(time.Since(start).Nanoseconds())
		switch {
		case i < 4: // warm both arms
		case enabled:
			on = append(on, d)
		default:
			off = append(off, d)
		}
	}
	obs.SetAccounting(true)
	m["obs.accounting_overhead_pct"] = (ratio(median(on), median(off)) - 1) * 100
}

// identityLib is a UDF with no body to speak of: calling it measures the
// boundary alone.
const identityLib = `
@scalarudf
def ident(s: str) -> str:
    return s
`

// microProbes times single layers on fixed-shape inputs drawn from the
// seed, independent of the workload: FFI transports and boxing, the
// PyLite front-end and its three call tiers, the chunk codec, admission.
func microProbes(seed uint64, m map[string]float64) {
	pubs := genTables(seed, 1, 1, "pubs")[0]

	// resilience: an uncontended slot.
	adm := resilience.NewAdmission(resilience.AdmissionConfig{})
	ctx := context.Background()
	m["resilience.acquire_release_ns_p50"] = median(timeReps(100, 10*minReps, func() {
		if release, _, err := adm.Acquire(ctx, "t", 0); err == nil {
			release()
		}
	}))

	// ffi: one scalar call over a 4 096-row string column per transport.
	const n = 4096
	col := data.NewColumnCap("s", data.KindString, n)
	titles := pubs.Col("title")
	for i := 0; i < n; i++ {
		col.AppendStr(titles.RawString(i % titles.Len()))
	}
	reg := core.NewRegistry(8)
	if err := reg.Define(identityLib); err == nil {
		ident, _ := reg.UDF("ident")
		proc := ffi.NewProcessInvoker(256)
		for name, inv := range map[string]ffi.Invoker{"vector": ffi.VectorInvoker{}, "tuple": ffi.TupleInvoker{}, "process": proc} {
			m["ffi.scalar_call_ns_per_row."+name] = median(timeReps(3, minReps, func() {
				inv.CallScalar(ident, []*data.Column{col}, n) //nolint:errcheck // identity cannot fail
			})) / n
		}
		proc.Close()
	}
	m["ffi.box_ns_per_value"] = median(timeReps(3, minReps, func() {
		ffi.UnboxValues("s", data.KindString, ffi.BoxColumn(col, n))
	})) / n

	// pylite: front-end, then one call per tier on two real bodies.
	m["pylite.parse_us_p50"] = median(timeReps(3, minReps, func() { pylite.Parse(workload.UDFBenchLib) })) / 1e3       //nolint:errcheck // a constant
	m["pylite.define_ms"] = median(timeReps(2, 30, func() { core.NewRegistry(0).Define(workload.UDFBenchLib) })) / 1e6 //nolint:errcheck
	rt := pylite.NewInterp()                                                                                           // HotThreshold 0: calls stay interpreted
	if err := rt.Exec(workload.UDFBenchLib); err == nil {
		dates := pubs.Col("pubdate")
		args := map[string]*data.Column{"cleandate": dates, "stem": titles}
		var closureCompile, vmCompile, interp, closure, vm []float64
		for _, name := range []string{"cleandate", "stem"} {
			v, _ := rt.Global(name)
			fn, ok := pylite.FuncOf(v)
			if !ok {
				continue
			}
			in := args[name]
			arg := func(i int) data.Value { return data.Str(in.RawString(i % in.Len())) }
			closureCompile = append(closureCompile, timeReps(3, minReps, func() { pylite.Compile(fn) })...) //nolint:errcheck
			vmCompile = append(vmCompile, timeReps(3, minReps, func() { pylite.BCCompile(fn) })...)         //nolint:errcheck
			// 10 000 calls per body and tier, as ten batches of 1 000; the
			// median batch gives the cost per call.
			perCall := func(call func(i int)) float64 {
				i := 0
				return median(timeReps(1, 10, func() {
					for k := 0; k < 1000; k++ {
						call(i)
						i++
					}
				})) / 1000
			}
			interp = append(interp, perCall(func(i int) { rt.Call(v, []data.Value{arg(i)}) })) //nolint:errcheck
			if cf, err := pylite.Compile(fn); err == nil {
				closure = append(closure, perCall(func(i int) { cf.Call(rt, []data.Value{arg(i)}, nil) })) //nolint:errcheck
			}
			if prog, err := pylite.BCCompile(fn); err == nil {
				regs := make([]data.Value, prog.NumRegs)
				vm = append(vm, perCall(func(i int) {
					regs[0] = arg(i)
					prog.RunVM(rt, regs) //nolint:errcheck
				}))
			}
		}
		m["pylite.compile_us.closure"] = median(closureCompile) / 1e3
		m["pylite.compile_us.vm"] = median(vmCompile) / 1e3
		m["pylite.call_ns.interp"] = geomean(interp)
		m["pylite.call_ns.closure"] = geomean(closure)
		m["pylite.call_ns.vm"] = geomean(vm)

		// data: Q10's token lists through the JSON codec complex values
		// use between UDFs.
		if tokens, ok := rt.Global("tokens"); ok {
			abstracts := pubs.Col("abstract")
			lists := make([]data.Value, 256)
			for i := range lists {
				lists[i], _ = rt.Call(tokens, []data.Value{data.Str(abstracts.RawString(i % abstracts.Len()))})
			}
			m["data.json_marshal_ns_per_value"] = median(timeReps(3, minReps, func() {
				for _, l := range lists {
					data.MarshalJSONValue(l)
				}
			})) / float64(len(lists))
		}
	}

	// data: the chunk codec the process transport ships batches with.
	var buf bytes.Buffer
	chunk := pubs.Chunk()
	encode := timeReps(3, minReps, func() {
		buf.Reset()
		data.EncodeChunk(&buf, chunk) //nolint:errcheck // bytes.Buffer cannot fail
	})
	wire := buf.Bytes()
	decode := timeReps(3, minReps, func() { data.DecodeChunk(bytes.NewReader(wire)) }) //nolint:errcheck
	mb := float64(len(wire)) / (1 << 20)
	m["data.encode_chunk_mb_s"] = mb / (median(encode) / 1e9)
	m["data.decode_chunk_mb_s"] = mb / (median(decode) / 1e9)
}
