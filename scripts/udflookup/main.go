// Command udflookup fails when non-test code calls a checked function
// from a place not allowed to call it. Each checked function is one row
// of rules:
//
//   - (*sqlengine.Catalog).UDF resolves a function name to a UDF. Only
//     the planner (internal/sqlengine/planner*.go), the catalog itself
//     and UDF registration may. The planner binds every call once per
//     statement (FuncExpr.UDF, Plan.UDF, AggSpec.UDF); everything after
//     it reads the bound pointer, so a second lookup is a second,
//     possibly different, definition within one statement.
//   - ffi.CallFusedVector and (ffi.Invoker).CallScalar are the two ways
//     a scalar UDF call crosses: a fused wrapper in process, any other
//     UDF through the profile's transport. Outside internal/ffi, the
//     choice between them is made only in sqlengine's Engine.callUDF;
//     fusedMorsel runs a morsel of a fused plan operator, which is a
//     wrapper by construction.
//   - (ffi.Invoker).CallAggregate folds a UDF aggregate, and so do the
//     transports' own methods of that name and ffi.FoldFusedAggregate.
//     Outside internal/ffi, only sqlengine's Engine.callAggregate may
//     call one: it decides that the fold of a fused aggregate runs in
//     process, so no executor sends it over the profile's transport.
//   - (*ffi.UDF).Invoke runs a scalar UDF's body on one row. Only the
//     transports in internal/ffi/transport.go may call it: they fire the
//     boundary's fault hook and record the crossing in ffi.udf.*, so no
//     executor again calls a UDF around its transport.
//   - (*pylite.Interp).Iterate (a drain: a generator runs with the
//     consumer as its yield), (*pylite.Generator).Next and
//     pylite.ValueIter (pulls) walk the rows a generator UDF yields.
//     Outside the PyLite runtime, only ffi's eachRow may, the one loop
//     every table and expand UDF drains through on every transport and
//     in every fused trace, and internal/bench/systems.go, whose UDO
//     baseline iterates for itself.
//   - sqlengine's newHashTable makes the engine's one hash table. Only
//     aggregateChunk, the one grouping (a DISTINCT and a UNION's dedup
//     are aggregates with no aggregates), and joinChunk, for its build,
//     may call it, so no second dedup or group-by grows back.
//   - sqlengine's (*Engine).gather copies the rows an operator's morsels
//     chose into new columns. A filter or a join hands its row lists up
//     and an aggregate, a projection or a join's probe side reads through
//     them, so only materialize, the one helper that gives any other
//     parent a chunk, may call it: no operator grows its own gather back.
//   - (*ffi.Stats).WrapNanosPerRow is the wrapper half of a UDF's learned
//     cost. Outside internal/ffi, only the cost model's udfRowCost
//     (internal/core/cost.go) may read it, so a UDF's body cost (wall
//     minus wrapper time) is derived in one place.
//   - (*pylite.Program).RunVM runs a UDF's register program. Outside the
//     PyLite runtime, only ffi's (*TraceOp).call may, which runs each
//     call of a fused trace in its own register window and re-runs only
//     that call on its compiled body when it bails: a trace has one VM
//     dispatch.
//
// Run from the module root:
//
//	go run ./scripts/udflookup
//
// It type-checks every package of the module from source and prints one
// line per offending call.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// module is this module's path.
const module = "qfusor"

// rule is one checked function: its types.Func.FullName, where calls of
// it may be, and what an offending line says. A place is a slash path
// from the module root (a filepath.Match pattern), optionally followed
// by ":name", the function or method the call must sit in.
type rule struct {
	fn    string
	where []string
	msg   string
}

// aggRule is where a UDF aggregate's fold may be called.
var aggRule = rule{
	where: []string{"internal/ffi/*.go", "internal/sqlengine/engine.go:callAggregate"},
	msg:   "folds a UDF aggregate through a transport directly; call Engine.callAggregate, the one place that decides fused dispatch",
}

// drainRule is where a UDF's yielded rows may be iterated.
var drainRule = rule{
	where: []string{"internal/pylite/*.go", "internal/ffi/trace.go:eachRow", "internal/bench/systems.go"},
	msg:   "iterates a UDF's yielded rows; drain through ffi's eachRow, the one generator loop",
}

var rules = []rule{
	{
		fn:    "(*" + module + "/internal/sqlengine.Catalog).UDF",
		where: []string{"internal/sqlengine/planner*.go", "internal/sqlengine/catalog.go", "internal/workload/goudfs.go"},
		msg:   "resolves a UDF by name through Catalog.UDF; read the planner-bound FuncExpr.UDF/Plan.UDF instead",
	},
	{
		fn:    module + "/internal/ffi.CallFusedVector",
		where: []string{"internal/ffi/*.go", "internal/sqlengine/engine.go:callUDF", "internal/sqlengine/exec_fused.go:fusedMorsel"},
		msg:   "runs a fused wrapper directly; call Engine.callUDF, the one place that decides fused dispatch",
	},
	{
		fn:    "(" + module + "/internal/ffi.Invoker).CallScalar",
		where: []string{"internal/ffi/*.go", "internal/sqlengine/engine.go:callUDF"},
		msg:   "calls a scalar UDF through the transport directly; call Engine.callUDF, the one place that decides fused dispatch",
	},
	aggRule.of("(" + module + "/internal/ffi.Invoker).CallAggregate"),
	aggRule.of("(" + module + "/internal/ffi.VectorInvoker).CallAggregate"),
	aggRule.of("(*" + module + "/internal/ffi.ProcessInvoker).CallAggregate"),
	aggRule.of(module + "/internal/ffi.FoldFusedAggregate"),
	{
		fn:    "(*" + module + "/internal/ffi.UDF).Invoke",
		where: []string{"internal/ffi/transport.go"},
		msg:   "runs a UDF's body around its transport; call through Engine.callUDF and the profile's Invoker",
	},
	drainRule.of("(*" + module + "/internal/pylite.Interp).Iterate"),
	drainRule.of("(*" + module + "/internal/pylite.Generator).Next"),
	drainRule.of(module + "/internal/pylite.ValueIter"),
	{
		fn:    module + "/internal/sqlengine.newHashTable",
		where: []string{"internal/sqlengine/exec_columnar.go:aggregateChunk", "internal/sqlengine/exec_columnar.go:joinChunk"},
		msg:   "makes a hash table outside the one grouping; a dedup or group-by is an OpAggregate (aggregateChunk), a join's build is joinChunk's",
	},
	{
		fn:    "(*" + module + "/internal/sqlengine.Engine).gather",
		where: []string{"internal/sqlengine/morsel.go:materialize"},
		msg:   "gathers an operator's output outside materialize; return the row lists (a rel's takes) and let the parent read through them or materialize them",
	},
	{
		fn:    "(*" + module + "/internal/ffi.Stats).WrapNanosPerRow",
		where: []string{"internal/ffi/*.go", "internal/core/cost.go:udfRowCost"},
		msg:   "derives a UDF's body cost from its statistics; read CostModel.udfRowCost, the one place that does",
	},
	{
		fn:    "(*" + module + "/internal/pylite.Program).RunVM",
		where: []string{"internal/pylite/*.go", "internal/ffi/vm.go:call"},
		msg:   "runs a register program outside the one VM dispatch; lower the trace and let (*ffi.TraceOp).call run each call in its window",
	},
}

// of is r checking the function fn.
func (r rule) of(fn string) rule {
	r.fn = fn
	return r
}

// allowed reports whether a call of r's function in fn (the enclosing
// function's name, "" at package level) of file may be.
func (r rule) allowed(file, fn string) bool {
	for _, w := range r.where {
		pat, in, scoped := strings.Cut(w, ":")
		if m, _ := filepath.Match(pat, file); m && (!scoped || in == fn) {
			return true
		}
	}
	return false
}

// enclosing names the function or method declaration of f that holds
// pos ("" when none does).
func enclosing(f *ast.File, pos token.Pos) string {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return fd.Name.Name
		}
	}
	return ""
}

func main() {
	dirs := map[string][]string{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/ is its own module; testdata holds no Go package.
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dirs[filepath.Dir(p)] = append(dirs[filepath.Dir(p)], p)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "udflookup:", err)
		os.Exit(2)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var bad []string
	for dir, files := range dirs {
		var parsed []*ast.File
		byName := map[string]*ast.File{}
		for _, f := range files {
			af, err := parser.ParseFile(fset, f, nil, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "udflookup:", err)
				os.Exit(2)
			}
			parsed = append(parsed, af)
			byName[f] = af
		}
		// Uses holds every identifier that denotes a function: a package
		// function's name and a selected method's alike.
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(path.Join(module, filepath.ToSlash(dir)), fset, parsed, info); err != nil {
			fmt.Fprintln(os.Stderr, "udflookup:", err)
			os.Exit(2)
		}
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			for _, r := range rules {
				if fn.FullName() != r.fn {
					continue
				}
				pos := fset.Position(id.Pos())
				if !r.allowed(filepath.ToSlash(pos.Filename), enclosing(byName[pos.Filename], id.Pos())) {
					bad = append(bad, fmt.Sprintf("%s: %s", pos, r.msg))
				}
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Println(b)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
}
