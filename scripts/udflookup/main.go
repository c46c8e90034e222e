// Command udflookup fails when non-test code resolves a function name to
// a UDF through sqlengine's Catalog.UDF outside the places allowed to:
// the planner (internal/sqlengine/planner*.go), the catalog itself and UDF
// registration. The planner binds every call once per statement
// (FuncExpr.UDF, Plan.UDF, AggSpec.UDF); everything after it reads the
// bound pointer, so a second lookup is a second, possibly different,
// definition within one statement.
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

// module is this module's path; lookup is the method whose calls are
// checked.
const (
	module = "qfusor"
	lookup = "(*" + module + "/internal/sqlengine.Catalog).UDF"
)

// allowed reports whether a file (slash path from the module root) may
// call it.
func allowed(file string) bool {
	if m, _ := filepath.Match("internal/sqlengine/planner*.go", file); m {
		return true
	}
	switch file {
	case "internal/sqlengine/catalog.go",
		"internal/workload/goudfs.go": // InstallNativeUDFs registers Go twins
		return true
	}
	return false
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
		for _, f := range files {
			af, err := parser.ParseFile(fset, f, nil, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "udflookup:", err)
				os.Exit(2)
			}
			parsed = append(parsed, af)
		}
		info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(path.Join(module, filepath.ToSlash(dir)), fset, parsed, info); err != nil {
			fmt.Fprintln(os.Stderr, "udflookup:", err)
			os.Exit(2)
		}
		for sel, s := range info.Selections {
			fn, ok := s.Obj().(*types.Func)
			if !ok || fn.FullName() != lookup {
				continue
			}
			pos := fset.Position(sel.Sel.Pos())
			if !allowed(filepath.ToSlash(pos.Filename)) {
				bad = append(bad, fmt.Sprintf("%s: resolves a UDF by name through Catalog.UDF; read the planner-bound FuncExpr.UDF/Plan.UDF instead", pos))
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
