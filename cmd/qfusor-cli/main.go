// Command qfusor-cli is a small SQL shell over the QFusor engine:
// pick an engine profile, optionally preload a paper workload, then
// type SQL (UDF queries run through the QFusor pipeline).
//
// Meta commands (a leading "." works the same as "\"; any other line
// starting with either is rejected as an unknown meta command):
//
//	\native <sql>   run without fusion
//	\explain <sql>  show the rewritten plan + fused wrappers
//	\analyze <sql>  EXPLAIN ANALYZE: run with tracing, show the span tree
//	\rewrite <sql>  show the fused query as SQL (rewrite path 1)
//	\trace on|off   trace every following query (prints the span tree)
//	\metrics        dump the engine-wide metrics registry (expvar-style)
//	\plancache      show plan-decision cache counters (size, hits, misses)
//	\resources      show the last query's resource ledger + recent regressions
//	\def            enter UDF definition mode (end with a line: \end)
//	\tables         list tables
//	\udfs           list registered UDFs
//	\quit
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"qfusor"
	"qfusor/internal/core"
	"qfusor/internal/faultinject"
	"qfusor/internal/workload"
)

func main() {
	profile := flag.String("engine", "monetdb", "engine profile: monetdb | postgresql | sqlite | duckdb | pyspark | dbx")
	load := flag.String("load", "", "preload a workload: udfbench | zillow | weld | udo (comma separated)")
	size := flag.String("size", "tiny", "workload size: tiny | small | medium | large")
	parallelism := flag.Int("parallelism", 0, "executor workers: 0 = auto (one per core), 1 = serial")
	morsel := flag.Int("morsel", 0, "morsel row count for the parallel executor (0 = default, 2048)")
	tier := flag.String("tier", "auto", "fused-section execution tier: vm | closure | auto (inline every UDF call whose body translates, else vm)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none); expired queries return a cancelled QueryError")
	httpAddr := flag.String("http", "", "serve diagnostics on this address (/metrics, /debug/queries, /debug/trace/<id>, /debug/profile); empty = off")
	serveAddr := flag.String("serve", "", "serve the multi-session HTTP/JSON query API on this address instead of the shell (/v1/query, /v1/session, /debug/sessions + diagnostics); empty = shell mode")
	serveMax := flag.Int("serve-max", 0, "admission: max concurrent queries (0 = default, 8)")
	serveTenantMax := flag.Int("serve-tenant-max", 0, "admission: max concurrent queries per tenant (0 = the global cap)")
	serveQueue := flag.Int("serve-queue", 0, "admission: wait-queue depth (0 = default, 2x max)")
	serveQueueTimeout := flag.Duration("serve-queue-timeout", 0, "admission: max time a query waits in the queue (0 = default, 1s)")
	serveShed := flag.Duration("serve-shed", 0, "admission: shed queries whose estimated cost exceeds this while others wait (0 = no cost shedding)")
	serveGrace := flag.Duration("serve-grace", 0, "shutdown: drain grace before in-flight queries are cancelled (0 = default, 5s)")
	profInterval := flag.Int("profile", 0, "enable the UDF sampling profiler with this statement interval (0 = off; rounded up to a power of two)")
	plancache := flag.Bool("plancache", true, "enable the plan-decision cache (repeated queries skip the optimizer front-end)")
	querylog := flag.String("querylog", "", "append the structured query log (one JSON line per query) to this file; empty = off")
	var faults faultFlags
	flag.Var(&faults, "fault", "arm a fault point: name[=error|panic|delay[:dur]|kill] (repeatable; see faultinject)")
	flag.Parse()
	queryTimeout = *timeout

	if *querylog != "" {
		f, err := os.OpenFile(*querylog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "querylog:", err)
			os.Exit(1)
		}
		defer f.Close()
		qfusor.SetQueryLogWriter(f)
	}

	if _, err := core.ParseTier(*tier); err != nil {
		fmt.Fprintln(os.Stderr, "-tier:", err)
		os.Exit(2)
	}
	db, err := qfusor.Open(qfusor.Profile(*profile), qfusor.WithParallelism(*parallelism),
		qfusor.WithPlanCache(*plancache), qfusor.WithMorselSize(*morsel), qfusor.WithTier(*tier))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()
	if *profInterval > 0 {
		db.StartUDFProfiler(*profInterval)
	}
	if *httpAddr != "" {
		addr, err := db.ServeDebug(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "diagnostics server:", err)
			os.Exit(1)
		}
		fmt.Printf("diagnostics: http://%s/metrics  /debug/queries  /debug/trace/<id>  /debug/profile\n", addr)
	}

	for _, w := range strings.Split(*load, ",") {
		if w == "" {
			continue
		}
		if err := preload(db, w, qfusor.Size(*size)); err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded workload %q at size %s\n", w, *size)
	}

	if *serveAddr != "" {
		addr, err := db.Serve(*serveAddr, qfusor.ServerConfig{
			MaxConcurrent:    *serveMax,
			TenantConcurrent: *serveTenantMax,
			QueueDepth:       *serveQueue,
			QueueTimeout:     *serveQueueTimeout,
			ShedCostNanos:    float64(serveShed.Nanoseconds()),
			DrainGrace:       *serveGrace,
			DefaultTimeout:   *timeout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "query server:", err)
			os.Exit(1)
		}
		fmt.Printf("serving: http://%s/v1/query  /v1/session  /debug/sessions  /metrics\n", addr)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("draining...")
		return // the deferred db.Close drains and stops the server
	}

	fmt.Printf("qfusor shell — engine=%s (\\quit to exit)\n", *profile)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Print("qfusor> ") }
	prompt()
	for sc.Scan() {
		line := sc.Text()
		cmd, arg, isMeta, err := parseMeta(line)
		if err != nil {
			fmt.Println("error:", err)
			prompt()
			continue
		}
		if isMeta {
			switch cmd {
			case "quit", "q":
				return
			case "metrics":
				fmt.Print(qfusor.Metrics().Text())
			case "plancache":
				st := db.PlanCacheStats()
				fmt.Printf("plan cache: size=%d/%d hits=%d misses=%d evictions=%d invalidations=%d\n",
					st.Size, st.Cap, st.Hits, st.Misses, st.Evictions, st.Invalidations)
			case "resources":
				showResources(db)
			case "trace on", "trace off":
				traceOn = cmd == "trace on"
				fmt.Printf("tracing %s\n", map[bool]string{true: "on", false: "off"}[traceOn])
			case "analyze":
				analyze(db, strings.TrimSuffix(arg, ";"))
			case "tables":
				listTables(db)
			case "udfs":
				listUDFs(db)
			case "def":
				src := readUntil(sc, "\\end")
				if err := db.Define(src); err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Println("ok")
				}
			case "rewrite":
				out, executable, err := db.RewriteSQL(arg)
				if err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Println(out)
					if !executable {
						fmt.Println("-- (display only: not re-submittable in this dialect)")
					}
				}
			case "explain":
				out, err := db.Explain(arg)
				if err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Println(out)
				}
			case "native":
				runOne(func(sql string) (*qfusor.Table, error) {
					ctx, cancel := queryCtx()
					defer cancel()
					return db.QueryNativeContext(ctx, sql)
				}, arg)
			}
			prompt()
			continue
		}
		trimmed := strings.TrimSpace(line)
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") || trimmed == "" {
			sql := strings.TrimSpace(buf.String())
			buf.Reset()
			if sql != "" {
				execute(db, strings.TrimSuffix(sql, ";"))
			}
			prompt()
		}
	}
}

// metaCommands maps each meta command to whether it takes the rest of
// the line as its argument. "trace on" and "trace off" are whole
// commands.
var metaCommands = map[string]bool{
	"quit": false, "q": false, "metrics": false, "plancache": false, "resources": false,
	"trace on": false, "trace off": false, "tables": false, "udfs": false, "def": false,
	"analyze": true, "rewrite": true, "explain": true, "native": true,
}

// errUnknownMeta rejects a meta-command line that names no command: it
// never reaches the SQL buffer, where it would corrupt the next
// statement.
var errUnknownMeta = errors.New("unknown meta command")

// parseMeta splits a shell line into a meta command and its argument.
// isMeta reports a leading "\" or "." (the SQLite-style alias). err is
// errUnknownMeta when such a line names no command, passes an argument
// to a command that takes none, or omits a required one.
func parseMeta(line string) (cmd, arg string, isMeta bool, err error) {
	t := strings.TrimSpace(line)
	if !strings.HasPrefix(t, "\\") && !strings.HasPrefix(t, ".") {
		return "", "", false, nil
	}
	t = t[1:]
	if takesArg, ok := metaCommands[t]; ok && !takesArg {
		return t, "", true, nil
	}
	cmd, arg, _ = strings.Cut(t, " ")
	arg = strings.TrimSpace(arg)
	if !metaCommands[cmd] || arg == "" {
		return "", "", true, errUnknownMeta
	}
	return cmd, arg, true, nil
}

// traceOn makes every SELECT run through EXPLAIN ANALYZE (\trace on).
var traceOn bool

// queryTimeout is the per-query deadline from -timeout (0 = none).
var queryTimeout time.Duration

// queryCtx returns the context every query runs under.
func queryCtx() (context.Context, context.CancelFunc) {
	if queryTimeout > 0 {
		return context.WithTimeout(context.Background(), queryTimeout)
	}
	return context.Background(), func() {}
}

// faultFlags collects repeated -fault values, arming each as it parses
// so a bad name or kind fails flag parsing with the valid choices.
type faultFlags []string

func (f *faultFlags) String() string { return strings.Join(*f, ",") }

func (f *faultFlags) Set(v string) error {
	if err := faultinject.EnableFlag(v); err != nil {
		return fmt.Errorf("%v (points: %s)", err, strings.Join(faultinject.Names(), ", "))
	}
	*f = append(*f, v)
	return nil
}

func execute(db *qfusor.DB, sql string) {
	up := strings.ToUpper(strings.Fields(sql + " ")[0])
	if up == "CREATE" || up == "INSERT" || up == "UPDATE" || up == "DELETE" {
		if err := db.Exec(sql); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("ok")
		}
		return
	}
	if traceOn {
		analyze(db, sql)
		return
	}
	runOne(func(sql string) (*qfusor.Table, error) {
		ctx, cancel := queryCtx()
		defer cancel()
		return db.QueryContext(ctx, sql)
	}, sql)
	rep := db.LastReport()
	if rep.Fallback {
		fmt.Printf("(degraded to native plan: %s)\n", rep.FallbackReason)
	}
	if rep.Sections > 0 {
		fmt.Printf("(%d fused sections, optimize %v, codegen %v)\n",
			rep.Sections, rep.FusOptim, rep.CodeGen)
	}
}

// analyze runs sql through EXPLAIN ANALYZE and prints the result table
// followed by the annotated span tree.
func analyze(db *qfusor.DB, sql string) {
	ctx, cancel := queryCtx()
	defer cancel()
	a, err := db.QueryAnalyzeContext(ctx, sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(qfusor.Format(a.Result, 25))
	fmt.Printf("(%d rows)\n\n", a.Result.NumRows())
	fmt.Print(a.Render())
}

// showResources prints the most recent query's resource ledger and the
// tail of the process-wide regression log (\resources).
func showResources(db *qfusor.DB) {
	recs := db.RecentQueries(1)
	if len(recs) == 0 {
		fmt.Println("no queries recorded yet")
	} else if r := recs[0].Resources; r == nil {
		fmt.Println("last query carried no resource ledger (accounting off?)")
	} else {
		fmt.Printf("last query: qid=%s sql=%s\n", r.QID, recs[0].SQL)
		fmt.Printf("  rows_out=%d morsels=%d udf_steps=%d retries=%d fallbacks=%d\n",
			r.RowsOut, r.Morsels, r.UDFSteps, r.Retries, r.Fallbacks)
		fmt.Printf("  ffi: calls=%d rows_in=%d rows_out=%d wall=%v wrapper=%v\n",
			r.FFICalls, r.FFIRowsIn, r.FFIRowsOut,
			time.Duration(r.FFIWallNanos), time.Duration(r.FFIWrapNanos))
		fmt.Printf("  alloc: bytes=%d objects=%d\n", r.AllocBytes, r.AllocObjects)
		for _, ph := range r.Phases {
			fmt.Printf("    phase %-10s alloc_bytes=%d alloc_objects=%d\n", ph.Name, ph.AllocBytes, ph.AllocObjects)
		}
		for _, op := range r.Ops {
			fmt.Printf("  op  %-26s calls=%d rows=%d time=%v\n", op.Name, op.Calls, op.Rows, time.Duration(op.Nanos))
		}
		for _, u := range r.UDFs {
			fmt.Printf("  udf %-26s calls=%d rows_in=%d rows_out=%d wall=%v wrapper=%v\n",
				u.Name, u.Calls, u.RowsIn, u.RowsOut, time.Duration(u.WallNanos), time.Duration(u.WrapNanos))
		}
	}
	evs := qfusor.RecentRegressions(5)
	if len(evs) == 0 {
		fmt.Println("regressions: none")
		return
	}
	fmt.Println("recent regressions:")
	for _, ev := range evs {
		fmt.Printf("  [%s] %s: %.0f vs baseline %.0f  (qid=%s) %s\n",
			ev.When.Format("15:04:05"), ev.Kind, ev.Value, ev.Baseline, ev.QID, ev.SQL)
	}
}

func runOne(run func(string) (*qfusor.Table, error), sql string) {
	start := time.Now()
	res, err := run(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(qfusor.Format(res, 25))
	fmt.Printf("(%d rows in %v)\n", res.NumRows(), time.Since(start))
}

func readUntil(sc *bufio.Scanner, end string) string {
	var b strings.Builder
	fmt.Printf("... enter UDF source, finish with %s\n", end)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == end {
			break
		}
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return b.String()
}

func preload(db *qfusor.DB, name string, size qfusor.Size) error {
	switch name {
	case "udfbench":
		if err := qfusor.InstallUDFBench(db); err != nil {
			return err
		}
		ub := qfusor.GenUDFBench(size)
		db.PutTable(ub.Pubs)
		db.PutTable(ub.Artifacts)
	case "zillow":
		if err := qfusor.InstallZillow(db); err != nil {
			return err
		}
		db.PutTable(qfusor.GenZillow(size))
	case "weld", "udo":
		return preloadInternal(db, name, size)
	default:
		return fmt.Errorf("unknown workload %q", name)
	}
	return nil
}

func listTables(db *qfusor.DB) {
	names := db.Tables()
	sort.Strings(names)
	for _, n := range names {
		fmt.Println(" ", n)
	}
}

func listUDFs(db *qfusor.DB) {
	for _, line := range db.UDFList() {
		fmt.Println(" ", line)
	}
}

func preloadInternal(db *qfusor.DB, name string, size qfusor.Size) error {
	switch name {
	case "weld":
		if err := db.DefineWorkload("weld"); err != nil {
			return err
		}
		pop, dirty := workload.GenWeld(size)
		db.PutTable(pop)
		db.PutTable(dirty)
	case "udo":
		if err := db.DefineWorkload("udo"); err != nil {
			return err
		}
		arrays, docs := workload.GenUDO(size)
		db.PutTable(arrays)
		db.PutTable(docs)
	}
	return nil
}
