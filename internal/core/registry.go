// Package core implements QFusor itself: the UDF registration mechanism
// (§4.1), the data-flow-graph construction over engine plans (§5.1,
// Alg. 1), the fusible-section discovery dynamic program (§5.2, Alg. 2),
// the hybrid cost model (Table 1), the TF1–TF8 fused-wrapper code
// generator with relational-operator offloading (§5.3, Tables 2–3), and
// the query rewriter (§5.4).
package core

import (
	"fmt"
	"strings"
	"sync"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/pylite"
	"qfusor/internal/sqlengine"
)

// UDFSpec describes one UDF being registered: the developer-facing
// metadata that the paper's decorators (@scalarudf, ...) carry.
type UDFSpec struct {
	Name     string
	Kind     ffi.UDFKind
	In       []data.Kind
	Out      []data.Kind
	OutNames []string
	Params   []string
	// Cost optionally supplies CREATE FUNCTION ... COST metadata
	// (nanoseconds per row).
	Cost float64
}

// Registry is the UDF registration mechanism: it owns a PyLite runtime,
// executes UDF sources into it, wraps functions per their specs and
// registers the resulting C-UDF equivalents into engine catalogs.
type Registry struct {
	RT *pylite.Interp

	mu   sync.Mutex
	udfs map[string]*ffi.UDF
}

// NewRegistry creates a registry whose runtime JIT-compiles functions
// after hotThreshold interpreted calls (0 disables the tracing JIT —
// the "native CPython" baseline).
func NewRegistry(hotThreshold int) *Registry {
	rt := pylite.NewInterp()
	rt.HotThreshold = hotThreshold
	return &Registry{RT: rt, udfs: make(map[string]*ffi.UDF)}
}

// Define executes UDF source code in the runtime (the developer's
// module: imports, helpers, and the decorated functions/classes). It
// also auto-registers any definitions carrying UDF decorators.
func (r *Registry) Define(src string) error {
	mod, err := pylite.Parse(src)
	if err != nil {
		return err
	}
	if err := r.RT.RunModule(mod); err != nil {
		return err
	}
	// Auto-registration from decorators + annotations.
	for _, st := range mod.Body {
		spec, ok := specFromDecorators(st)
		if !ok {
			continue
		}
		if _, err := r.Register(spec); err != nil {
			return err
		}
	}
	return nil
}

// specFromDecorators derives a UDFSpec from @scalarudf-style decorators
// and type annotations.
func specFromDecorators(st pylite.Stmt) (UDFSpec, bool) {
	kindOf := func(decorators []string) (ffi.UDFKind, bool) {
		for _, d := range decorators {
			switch strings.ToLower(d) {
			case "scalarudf":
				return ffi.Scalar, true
			case "aggregateudf":
				return ffi.Aggregate, true
			case "tableudf":
				return ffi.Table, true
			case "expandudf":
				return ffi.Expand, true
			}
		}
		return 0, false
	}
	switch def := st.(type) {
	case *pylite.FuncDef:
		kind, ok := kindOf(def.Decorators)
		if !ok {
			return UDFSpec{}, false
		}
		spec := UDFSpec{Name: def.Name, Kind: kind}
		for _, p := range def.Params {
			spec.Params = append(spec.Params, p.Name)
			k := data.KindString
			if p.Annotation != "" {
				if kk, err := data.KindFromName(p.Annotation); err == nil {
					k = kk
				}
			}
			spec.In = append(spec.In, k)
		}
		out := data.KindString
		if def.Returns != "" {
			if kk, err := data.KindFromName(def.Returns); err == nil {
				out = kk
			}
		}
		spec.Out = []data.Kind{out}
		return spec, true
	case *pylite.ClassDef:
		kind, ok := kindOf(def.Decorators)
		if !ok {
			return UDFSpec{}, false
		}
		return UDFSpec{Name: def.Name, Kind: kind, Out: []data.Kind{data.KindFloat}}, true
	}
	return UDFSpec{}, false
}

// Register wraps an already-defined function per its spec. This is the
// paper's wrapper-generation step: the produced ffi.UDF is the
// "compiled shared library" an engine's CREATE FUNCTION points at.
func (r *Registry) Register(spec UDFSpec) (*ffi.UDF, error) {
	fn, ok := r.RT.Global(spec.Name)
	if !ok {
		return nil, fmt.Errorf("core: UDF %s is not defined in the runtime", spec.Name)
	}
	if len(spec.Out) == 0 {
		spec.Out = []data.Kind{data.KindString}
	}
	u := &ffi.UDF{
		Name:     spec.Name,
		Kind:     spec.Kind,
		Params:   spec.Params,
		InKinds:  spec.In,
		OutKinds: spec.Out,
		OutNames: spec.OutNames,
		Fn:       fn,
		RT:       r.RT,
		EstCost:  spec.Cost,
	}
	r.mu.Lock()
	r.udfs[strings.ToLower(spec.Name)] = u
	r.mu.Unlock()
	return u, nil
}

// UDF returns a registered UDF.
func (r *Registry) UDF(name string) (*ffi.UDF, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.udfs[strings.ToLower(name)]
	return u, ok
}

// UDFs lists all registered UDFs.
func (r *Registry) UDFs() []*ffi.UDF {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*ffi.UDF, 0, len(r.udfs))
	for _, u := range r.udfs {
		out = append(out, u)
	}
	return out
}

// Attach issues the CREATE FUNCTION statements: every registered UDF
// becomes visible in the engine's catalog.
func (r *Registry) Attach(eng *sqlengine.Engine) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, u := range r.udfs {
		eng.Catalog.PutUDF(u)
	}
}
