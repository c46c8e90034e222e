// Command qfusor-bench runs the paper's evaluation experiments and
// prints each table/figure's rows. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	qfusor-bench                       # run everything at size=small
//	qfusor-bench -size medium          # bigger datasets
//	qfusor-bench -exp fig6b-offload    # one experiment
//	qfusor-bench -quick                # trimmed sweeps
//	qfusor-bench -list                 # list experiment names
//	qfusor-bench -obs BENCH_obs.json   # also write results + metrics JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"qfusor/internal/bench"
	"qfusor/internal/core"
	"qfusor/internal/faultinject"
	"qfusor/internal/obs"
	"qfusor/internal/obshttp"
	"qfusor/internal/workload"
)

// hostInfo records the hardware/runtime context a benchmark ran under,
// so BENCH_obs.json numbers are comparable across machines.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Parallelism is the -parallelism flag as given (0 = auto);
	// ParallelismResolved is the worker count "auto" resolved to, so a
	// recorded run is interpretable without knowing the host's cores.
	Parallelism         int `json:"parallelism"`
	ParallelismResolved int `json:"parallelism_resolved"`
}

func hostOf(parallelism int) hostInfo {
	resolved := parallelism
	if resolved <= 0 {
		resolved = runtime.GOMAXPROCS(0)
	}
	return hostInfo{
		GoVersion:           runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		NumCPU:              runtime.NumCPU(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Parallelism:         parallelism,
		ParallelismResolved: resolved,
	}
}

// obsReport is the machine-readable run record -obs writes: the figures
// alongside the engine-wide metrics delta accumulated while producing
// them (FFI crossings, JIT compiles, cache hits, executor row counts)
// and the host context.
type obsReport struct {
	Size    string          `json:"size"`
	Quick   bool            `json:"quick"`
	Host    hostInfo        `json:"host"`
	Results []*bench.Result `json:"results"`
	Metrics obs.Snapshot    `json:"metrics"`
}

func main() {
	size := flag.String("size", "small", "dataset size: tiny | small | medium | large")
	exp := flag.String("exp", "", "run a single experiment (see -list)")
	quick := flag.Bool("quick", false, "trim sweeps and repetitions")
	list := flag.Bool("list", false, "list experiment names and exit")
	obsOut := flag.String("obs", "", "write results + metrics snapshot as JSON to this file (e.g. BENCH_obs.json)")
	parallelism := flag.Int("parallelism", 0, "executor workers for experiments that don't pin their own: 0 = auto (one per core), 1 = serial")
	morsel := flag.Int("morsel", 0, "morsel row count for experiments that don't pin their own (0 = engine default, 2048)")
	tier := flag.String("tier", "", "fused-section execution tier for experiments that don't pin their own: vm | closure | auto/empty (inline every UDF call whose body translates, else vm)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none); an expired query fails its experiment instead of wedging the run")
	httpAddr := flag.String("http", "", "serve diagnostics while the run is live (/metrics, /debug/queries, /debug/trace/<id>); empty = off")
	plancache := flag.Bool("plancache", true, "enable the plan-decision cache on launched instances (the plancache experiment manages its own arms)")
	smoke := flag.Bool("obs-smoke", false, "run the diagnostics-plane smoke test (endpoints, exposition validity, trace round-trip) and exit")
	vmsmoke := flag.Bool("vm-smoke", false, "run the VM-tier smoke test (E20 micro-run + qfusor.vm.* metrics exposition) and exit")
	servesmoke := flag.Bool("serve-smoke", false, "run the query-server smoke test (sessions + overload burst + admission metrics + drain over real HTTP) and exit")
	inlinesmoke := flag.Bool("inline-smoke", false, "run the inlined-tier smoke test (native-identical results, zero FFI crossings, qfusor.inline.* exposition) and exit")
	querylog := flag.String("querylog", "", "append the structured query log (one JSON line per query) to this file; empty = off")
	var faults faultFlags
	flag.Var(&faults, "fault", "arm a fault point: name[=error|panic|delay[:dur]|kill] (repeatable; exercises the resilience layer)")
	flag.Parse()

	if *querylog != "" {
		f, err := os.OpenFile(*querylog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "querylog: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		obs.DefaultQueryLog.SetWriter(f)
	}

	if *smoke {
		if err := obsSmoke(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "obs-smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("obs-smoke: OK")
		return
	}
	if *vmsmoke {
		if err := vmSmoke(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "vm-smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("vm-smoke: OK")
		return
	}
	if *servesmoke {
		if err := serveSmoke(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "serve-smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("serve-smoke: OK")
		return
	}
	if *inlinesmoke {
		if err := inlineSmoke(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "inline-smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("inline-smoke: OK")
		return
	}
	if *httpAddr != "" {
		srv := &obshttp.Server{}
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diagnostics server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("diagnostics: http://%s/metrics\n", addr)
	}

	r := bench.NewRunner(workload.Size(*size), os.Stdout)
	r.Quick = *quick
	r.Parallelism = *parallelism
	r.QueryTimeout = *timeout
	r.PlanCacheOff = !*plancache
	r.MorselSize = *morsel
	t, err := core.ParseTier(*tier)
	if err != nil {
		fmt.Fprintln(os.Stderr, "-tier:", err)
		os.Exit(2)
	}
	r.Tier = t

	if *list {
		var names []string
		for name := range r.Experiments() {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	base := obs.Default.Snapshot()

	if *exp != "" {
		fn, ok := r.Experiments()[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		res, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", *exp, err)
			os.Exit(1)
		}
		r.Print(res)
		writeObs(*obsOut, *size, *quick, *parallelism, []*bench.Result{res}, base)
		return
	}

	results, err := r.All()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments failed: %v\n", err)
		os.Exit(1)
	}
	writeObs(*obsOut, *size, *quick, *parallelism, results, base)
}

// writeObs emits the -obs JSON record (a no-op without -obs).
func writeObs(path, size string, quick bool, parallelism int, results []*bench.Result, base obs.Snapshot) {
	if path == "" {
		return
	}
	rec := obsReport{
		Size:    size,
		Quick:   quick,
		Host:    hostOf(parallelism),
		Results: results,
		Metrics: obs.Default.Snapshot().Diff(base),
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		return
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		return
	}
	fmt.Printf("\nwrote %s\n", path)
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
