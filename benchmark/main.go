// Command benchmark is the repository's one repeatable benchmark: four
// workloads that stress different layers, end-to-end metrics measured
// with tracing off, and per-layer numbers timed from outside the program.
// README.md says what each workload is for and how the metrics interact;
// BENCHMARK.json at the repository root is the contract it is run under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the window the bounds
// were measured with. The issue asked for 30 s; four workloads times the
// driver's 22 runs each fit its time limit only at half that, and all
// four windows shrank equally.
const defaultSeconds = 15

func main() {
	var (
		name      = flag.String("workload", "", "run one workload (default: all four)")
		seed      = flag.Uint64("seed", 1, "seed for tables, literals and the operation schedule")
		seconds   = flag.Int("seconds", defaultSeconds, "measured window in seconds")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a traced pass; -1: both")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of end-to-end runs of this binary and compare them under the bounds")
		runs      = flag.Int("runs", 3, "with -selfcheck: runs per set, each on the next seed")
		outDir    = flag.String("out", "out", "directory for trace files")
	)
	flag.Parse()
	ballast = make([]byte, 64<<20)

	defs := workloadDefs
	if *name != "" {
		def := findWorkload(*name)
		if def == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		defs = []workloadDef{*def}
	}
	opt := options{seed: *seed, window: time.Duration(*seconds) * time.Second, scale: 1, outDir: *outDir}
	if *selfcheck {
		if !selfCheck(defs, opt, *runs) {
			os.Exit(1)
		}
		return
	}

	type entry struct {
		key    string
		traced bool
		res    *result
	}
	var results []entry
	ok := true
	for i := range defs {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			res, err := run(&defs[i], opt, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", defs[i].Name, err)
				os.Exit(1)
			}
			printJSON(map[string]any{"info": res.info})
			ok = ok && res.Correct
			key := defs[i].Name + "/end_to_end"
			if traced {
				key = defs[i].Name + "/per_layer"
			}
			results = append(results, entry{key, traced, res})
		}
	}
	// One run prints the contract's result object; several print one
	// document holding a result object per workload and kind.
	if len(results) == 1 {
		printJSON(results[0].res.document(results[0].traced))
	} else {
		doc := map[string]any{"seed": *seed, "window_s": *seconds, "host": hostFingerprint(), "claim": nil}
		for _, e := range results {
			doc[e.key] = e.res.document(e.traced)
		}
		printJSON(doc)
	}
	if !ok {
		os.Exit(1)
	}
}

// ballast is 64 MiB of pointer-free heap standing in for the data a
// real instance would hold. serve_short_mixed keeps its tables at 64–128
// rows so that execution stays sub-millisecond, which leaves ~10 MB live;
// at that size the collector runs ~60 times a second and its scheduling,
// not the code under test, sets the latency (20 % between identical
// runs, 3 % with the ballast). It is never read or written.
var ballast []byte

func printJSON(v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

// document renders a result in the contract's shape: every metric of
// its kind by name, with value and unit.
func (res *result) document(perLayer bool) map[string]any {
	spec := endToEndSpec
	if perLayer {
		spec = perLayerSpec
	}
	metrics := map[string]any{}
	for _, s := range spec {
		metrics[s.Name] = map[string]any{"value": res.Metrics[s.Name], "unit": s.Unit}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does, which is how the driver
// computes spreads.
func quartiles(values []float64) (q1, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	m := len(xs)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}

// selfCheck runs two sets of end-to-end runs of the same code and reports,
// per workload and metric, each set's spread (interquartile range over
// median) and how much worse the second median is than the first, next
// to the bound. It fails when a change exceeds its bound; a spread wider
// than its bound is marked, since the driver (which takes ten runs per
// set) would refuse it.
func selfCheck(defs []workloadDef, opt options, runs int) bool {
	if runs < 2 {
		fmt.Fprintln(os.Stderr, "-selfcheck needs -runs of at least 2")
		return false
	}
	// sets[s][workload][metric] = values
	var sets [2]map[string]map[string][]float64
	correct := true
	for s := range sets {
		sets[s] = map[string]map[string][]float64{}
		for i := range defs {
			vals := map[string][]float64{}
			for k := 0; k < runs; k++ {
				o := opt
				o.seed = opt.seed + uint64(k)
				res, err := run(&defs[i], o, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", defs[i].Name, err)
					return false
				}
				if !res.Correct {
					correct = false
					fmt.Fprintf(os.Stderr, "%s seed %d: %d of %d operations failed: %v\n", defs[i].Name, o.seed, res.Failed, res.Attempted, res.info["problems"])
				}
				for name, v := range res.Metrics {
					vals[name] = append(vals[name], v)
				}
			}
			sets[s][defs[i].Name] = vals
		}
	}
	fmt.Printf("%-18s %-20s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "spreadA", "spreadB", "change", "bound")
	var offenders []string
	for _, def := range defs {
		for _, spec := range endToEndSpec {
			a, b := sets[0][def.Name][spec.Name], sets[1][def.Name][spec.Name]
			spread := func(v []float64) float64 {
				q1, q3 := quartiles(v)
				return ratio(q3-q1, median(append([]float64(nil), v...)))
			}
			ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
			change := ratio(mb-ma, ma)
			if spec.Better == higher {
				change = -change
			}
			sa, sb := spread(a), spread(b)
			mark := ""
			if spec.Name != "setup_s" && max(sa, sb) > spec.Bound {
				mark = "  spread > bound"
			}
			fmt.Printf("%-18s %-20s %12.4f %12.4f %8.4f %8.4f %+8.4f %6.2f%s\n", def.Name, spec.Name, ma, mb, sa, sb, change, spec.Bound, mark)
			if change > spec.Bound {
				offenders = append(offenders, def.Name+"/"+spec.Name)
			}
		}
	}
	if len(offenders) > 0 {
		fmt.Printf("outside their bounds: %v\n", offenders)
	}
	return correct && len(offenders) == 0
}
