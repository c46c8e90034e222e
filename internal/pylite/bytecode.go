package pylite

import (
	"fmt"

	"qfusor/internal/data"
)

// Register-bytecode tier: BCCompile lowers a UDF body into a flat
// register program (Program) that the vectorized VM (vm.go) executes
// once per row over an entire columnar morsel, with no per-call frame
// allocation and no per-row closure dispatch. The subset is
// deliberately static: straight-line and branching arithmetic,
// comparisons, string/list/dict/set operations, builtin calls and
// bounded loops. True dynamism — user-function calls, generators,
// exception handling, mutation of values that outlive the call — is
// either rejected at compile time (the function keeps the closure
// tier) or compiled to an explicit OpBail that re-routes the single
// row to the closure tier at run time.
//
// Restartability invariant: a bailing row is re-executed from scratch
// on the closure tier, so no instruction that can precede a bail may
// mutate state that survives the call. The compiler enforces this by
// allowing mutation (index stores, append/extend/... methods) only on
// "fresh" locals — names whose every assignment is a freshly
// constructed container ([], {}, a comprehension, list()/sorted()/
// split() results). Everything else compiles to OpBail at the mutation
// point, before any non-fresh state changed.

// VMOp enumerates the bytecode operations.
type VMOp uint8

const (
	// OpConst: regs[Dst] = Val.
	OpConst VMOp = iota
	// OpMove: regs[Dst] = regs[A].
	OpMove
	// OpLoadGlobal: regs[Dst] = the free name Sym, resolved at compile
	// time (ref): the closure scopes, the module cell, then the builtin
	// (NameError otherwise).
	OpLoadGlobal
	// OpBinOp: regs[Dst] = binOp(Sym, regs[A], regs[B]).
	OpBinOp
	// OpUnaryOp: regs[Dst] = unaryOp(Sym, regs[A]).
	OpUnaryOp
	// OpCompare: regs[Dst] = Bool(compareOp(Sym, regs[A], regs[B])).
	OpCompare
	// OpJump: pc = A.
	OpJump
	// OpJumpIfFalse: if !regs[A].Truthy() { pc = B }.
	OpJumpIfFalse
	// OpJumpIfTrue: if regs[A].Truthy() { pc = B }.
	OpJumpIfTrue
	// OpCall: regs[Dst] = regs[A](regs[Xs]...). Only *Builtin callees
	// execute (pure-args guarded); everything else bails.
	OpCall
	// OpCallMethod: regs[Dst] = method Sym of regs[A] with regs[Xs].
	// str/list/dict/set receivers and module-attr builtins execute;
	// instances, generators and other runtime objects bail.
	OpCallMethod
	// OpGetAttr: regs[Dst] = getattr(regs[A], Sym).
	OpGetAttr
	// OpIndex: regs[Dst] = regs[A][regs[B]].
	OpIndex
	// OpSlice: regs[Dst] = regs[Xs[0]][regs[Xs[1]]:regs[Xs[2]]:regs[Xs[3]]].
	OpSlice
	// OpSetIndex: regs[A][regs[B]] = regs[C] (fresh receivers only).
	OpSetIndex
	// OpMakeList: regs[Dst] = [regs[Xs]...] (fresh).
	OpMakeList
	// OpMakeDict: regs[Dst] = {regs[Xs[0]]: regs[Xs[1]], ...} (fresh).
	OpMakeDict
	// OpMakeSet: regs[Dst] = {regs[Xs]...} (fresh).
	OpMakeSet
	// OpListAppend: regs[A].append(regs[B]) — compiler-built lists only.
	OpListAppend
	// OpSetAdd: regs[A].add(regs[B]) — compiler-built sets only.
	OpSetAdd
	// OpUnpack: regs[Xs[0]], regs[Xs[1]], ... = regs[A].
	OpUnpack
	// OpIterInit: regs[Dst] = normalized iterable of regs[A], regs[B] =
	// cursor 0. Lists, strings, ranges, dict keys and sets iterate;
	// anything else bails.
	OpIterInit
	// OpIterNext: regs[Dst] = next element of regs[A] advancing cursor
	// regs[B]; jumps to C on exhaustion. Carries the loop's
	// cancellation check and profiler sample (one per iteration, like
	// the closure tier's back-edges).
	OpIterNext
	// OpCheck: cancellation poll + profiler sample at a while-loop
	// back-edge.
	OpCheck
	// OpReturn: return regs[A].
	OpReturn
	// OpBail: abandon the row to the closure tier (Sym = reason).
	OpBail
)

// Instr is one bytecode instruction. Operand meaning depends on Op.
type Instr struct {
	Op      VMOp
	Dst     int
	A, B, C int
	Sym     string
	Val     data.Value
	Xs      []int
	Line    int
	ref     *globalRef // OpLoadGlobal's resolved name
}

// Program is a compiled register program for one UDF body.
type Program struct {
	Name   string
	Instrs []Instr
	// NumRegs is the register-file size; parameters occupy registers
	// [0, NumParams).
	NumRegs   int
	NumParams int
	// Required is the number of parameters without defaults; Defaults
	// holds the constant default for every parameter index >= Required.
	Required int
	Defaults []data.Value
	// ClearRegs lists the registers that must be Null-cleared before
	// each run: those some path can read before writing (conditionally
	// assigned locals, loop-carried state). Registers provably written
	// before every read skip the clear — the dominant per-row entry
	// cost when the same file is reused across a morsel. NeedsClear is
	// len(ClearRegs) > 0, precomputed for the hot path.
	ClearRegs  []int
	NeedsClear bool
	// Line is the entry line for the sampling profiler.
	Line int
}

// AlwaysBails reports whether the program's first reachable
// instruction is a bail — such a program would send every row to the
// closure tier and is not worth dispatching.
func (p *Program) AlwaysBails() bool {
	return len(p.Instrs) > 0 && p.Instrs[0].Op == OpBail
}

// vmMutatingMethods are container methods that mutate their receiver;
// the compiler only emits them against fresh locals.
var vmMutatingMethods = map[string]bool{
	"append": true, "extend": true, "insert": true, "remove": true,
	"pop": true, "clear": true, "sort": true, "reverse": true,
	"add": true, "discard": true, "update": true, "setdefault": true,
	"popitem": true,
}

// vmFreshBuiltins are builtins whose result is always a freshly
// constructed container (safe to mutate before a later bail).
var vmFreshBuiltins = map[string]bool{
	"list": true, "dict": true, "set": true, "sorted": true,
}

// vmFreshMethods are methods whose result is a fresh container.
var vmFreshMethods = map[string]bool{
	"split": true, "copy": true, "keys": true, "values": true,
	"items": true, "splitlines": true,
}

// bcErrf builds a compile-rejection error (the function stays on the
// closure tier).
func bcErrf(format string, args ...interface{}) error {
	return fmt.Errorf("pylite: bytecode: "+format, args...)
}

type bcLoop struct {
	contTarget int   // pc continue jumps to
	breaks     []int // Jump instrs to patch to the loop exit
}

type bcompiler struct {
	fn     *FuncValue
	slots  map[string]int
	fresh  map[string]bool
	order  []string
	nregs  int
	instrs []Instr
	loops  []bcLoop
}

// BCCompile lowers fn into a register program, or returns an error
// naming the first construct outside the bytecode subset (the function
// is then permanently ineligible for the VM tier; the closure tier
// remains authoritative).
func BCCompile(fn *FuncValue) (*Program, error) {
	if fn.IsGen {
		return nil, bcErrf("%s: generators are closure-tier only", fn.Name)
	}
	if fn.Vararg != "" {
		return nil, bcErrf("%s: *args binding is closure-tier only", fn.Name)
	}
	c := &bcompiler{fn: fn, slots: map[string]int{}, fresh: map[string]bool{}}
	for _, p := range fn.Params {
		if p.Default != nil {
			if _, ok := p.Default.(*Const); !ok {
				return nil, bcErrf("%s: non-constant parameter default", fn.Name)
			}
		}
		c.addLocal(p.Name, false)
	}
	np := len(c.order)
	if fn.Expr != nil { // lambda
		r, err := c.expr(fn.Expr)
		if err != nil {
			return nil, err
		}
		c.emit(Instr{Op: OpReturn, A: r})
	} else {
		if err := c.scanLocals(fn.Body); err != nil {
			return nil, err
		}
		if err := c.block(fn.Body); err != nil {
			return nil, err
		}
	}
	prog := &Program{
		Name:      fn.Name,
		Instrs:    c.instrs,
		NumRegs:   c.nregs,
		NumParams: np,
		Required:  np,
	}
	if len(fn.Body) > 0 {
		prog.Line = fn.Body[0].nodeLine()
	}
	for i := len(fn.Params) - 1; i >= 0; i-- {
		if fn.Params[i].Default == nil {
			break
		}
		prog.Required = i
	}
	if prog.Required < np {
		prog.Defaults = make([]data.Value, np)
		for i := prog.Required; i < np; i++ {
			prog.Defaults[i] = fn.Params[i].Default.(*Const).Value
		}
	}
	prog.ClearRegs = clearRegs(prog)
	prog.NeedsClear = len(prog.ClearRegs) > 0
	return prog, nil
}

// instrRegs reports one instruction's register reads and writes (for
// the clear analysis). ok=false means the opcode is unrecognized and
// the analysis must give up. OpIterNext conservatively claims no
// writes: its cursor/dst writes depend on which edge is taken.
func instrRegs(in *Instr, read, write func(int)) bool {
	switch in.Op {
	case OpConst, OpLoadGlobal:
		write(in.Dst)
	case OpMove, OpUnaryOp, OpGetAttr:
		read(in.A)
		write(in.Dst)
	case OpBinOp, OpCompare, OpIndex:
		read(in.A)
		read(in.B)
		write(in.Dst)
	case OpCall, OpCallMethod:
		read(in.A)
		for _, x := range in.Xs {
			read(x)
		}
		write(in.Dst)
	case OpMakeList, OpMakeSet, OpSlice:
		for _, x := range in.Xs {
			read(x)
		}
		write(in.Dst)
	case OpMakeDict:
		for _, x := range in.Xs {
			read(x)
		}
		write(in.Dst)
	case OpSetIndex:
		read(in.A)
		read(in.B)
		read(in.C)
	case OpListAppend, OpSetAdd:
		read(in.A)
		read(in.B)
	case OpUnpack:
		read(in.A)
		for _, x := range in.Xs {
			write(x)
		}
	case OpIterInit:
		read(in.A)
		write(in.Dst)
		write(in.B)
	case OpIterNext:
		read(in.A)
		read(in.B)
	case OpJumpIfFalse, OpJumpIfTrue:
		read(in.A)
	case OpReturn:
		read(in.A)
	case OpJump, OpCheck, OpBail:
		// no registers
	default:
		return false
	}
	return true
}

// clearRegs computes which registers must be Null-cleared before each
// run: those some execution path can read before writing. A forward
// "definitely written" dataflow over the instruction CFG (meet =
// intersection across predecessors, parameters written on entry)
// proves the rest are dead on arrival — their stale morsel values are
// unobservable. Any unrecognized opcode degrades to clearing every
// non-parameter register.
func clearRegs(p *Program) []int {
	n := len(p.Instrs)
	everything := func() []int {
		all := make([]int, 0, p.NumRegs-p.NumParams)
		for r := p.NumParams; r < p.NumRegs; r++ {
			all = append(all, r)
		}
		return all
	}
	if p.NumRegs > 4096 || n == 0 {
		return everything()
	}
	words := (p.NumRegs + 63) / 64
	// in[pc] = registers definitely written on every path reaching pc.
	in := make([][]uint64, n)
	full := make([]uint64, words)
	for i := range full {
		full[i] = ^uint64(0)
	}
	for i := range in {
		in[i] = append([]uint64(nil), full...) // top: intersect shrinks
	}
	entry := make([]uint64, words)
	for r := 0; r < p.NumParams; r++ {
		entry[r/64] |= 1 << (r % 64)
	}
	copy(in[0], entry)
	succs := func(pc int) (a, b int) {
		a, b = -1, -1
		switch inr := &p.Instrs[pc]; inr.Op {
		case OpJump:
			a = inr.A
		case OpJumpIfFalse, OpJumpIfTrue:
			a, b = pc+1, inr.B
		case OpIterNext:
			a, b = pc+1, inr.C
		case OpReturn, OpBail:
		default:
			a = pc + 1
		}
		if a >= n {
			a = -1
		}
		if b >= n {
			b = -1
		}
		return a, b
	}
	needs := make([]uint64, words)
	bad := false
	// Chaotic iteration to a fixpoint; programs are tiny so a simple
	// sweep loop converges fast.
	changed := true
	for changed && !bad {
		changed = false
		for pc := 0; pc < n; pc++ {
			cur := append([]uint64(nil), in[pc]...)
			ok := instrRegs(&p.Instrs[pc], func(r int) {
				if r >= 0 && r < p.NumRegs && cur[r/64]&(1<<(r%64)) == 0 {
					needs[r/64] |= 1 << (r % 64)
				}
			}, func(r int) {
				if r >= 0 && r < p.NumRegs {
					cur[r/64] |= 1 << (r % 64)
				}
			})
			if !ok {
				bad = true
				break
			}
			sa, sb := succs(pc)
			for _, s := range [2]int{sa, sb} {
				if s < 0 {
					continue
				}
				for w := 0; w < words; w++ {
					nv := in[s][w] & cur[w]
					if nv != in[s][w] {
						in[s][w] = nv
						changed = true
					}
				}
			}
		}
	}
	if bad {
		return everything()
	}
	var out []int
	for r := p.NumParams; r < p.NumRegs; r++ {
		if needs[r/64]&(1<<(r%64)) != 0 {
			out = append(out, r)
		}
	}
	return out
}

func (c *bcompiler) addLocal(name string, fresh bool) int {
	if r, ok := c.slots[name]; ok {
		if !fresh {
			c.fresh[name] = false
		}
		return r
	}
	r := c.nregs
	c.nregs++
	c.slots[name] = r
	c.fresh[name] = fresh
	c.order = append(c.order, name)
	return r
}

func (c *bcompiler) temp() int {
	r := c.nregs
	c.nregs++
	return r
}

func (c *bcompiler) emit(in Instr) int {
	c.instrs = append(c.instrs, in)
	return len(c.instrs) - 1
}

func (c *bcompiler) pc() int { return len(c.instrs) }

func (c *bcompiler) patch(at int, target int) {
	switch c.instrs[at].Op {
	case OpJump:
		c.instrs[at].A = target
	case OpJumpIfFalse, OpJumpIfTrue:
		c.instrs[at].B = target
	case OpIterNext:
		c.instrs[at].C = target
	}
}

func (c *bcompiler) bail(reason string) int {
	return c.emit(Instr{Op: OpBail, Sym: reason})
}

// scanLocals is the first pass: it assigns a register to every name
// the body binds and computes the flow-insensitive freshness of each —
// a local is fresh only when every one of its bindings constructs a
// new container, so mutating it can never touch state that survives a
// bailed call. It also rejects statements outside the subset early so
// register allocation never sees them.
func (c *bcompiler) scanLocals(body []Stmt) error {
	for _, st := range body {
		switch s := st.(type) {
		case *Assign:
			fresh := c.freshExpr(s.Value)
			for _, t := range s.Targets {
				c.scanTarget(t, fresh)
			}
			if err := c.scanExprs(s.Value); err != nil {
				return err
			}
		case *AugAssign:
			c.scanTarget(s.Target, false)
			if err := c.scanExprs(s.Value); err != nil {
				return err
			}
		case *For:
			c.scanTarget(s.Target, false)
			if err := c.scanExprs(s.Iter); err != nil {
				return err
			}
			if err := c.scanLocals(s.Body); err != nil {
				return err
			}
		case *If:
			if err := c.scanExprs(s.Cond); err != nil {
				return err
			}
			if err := c.scanLocals(s.Body); err != nil {
				return err
			}
			if err := c.scanLocals(s.Else); err != nil {
				return err
			}
		case *While:
			if err := c.scanExprs(s.Cond); err != nil {
				return err
			}
			if err := c.scanLocals(s.Body); err != nil {
				return err
			}
		case *ExprStmt:
			if err := c.scanExprs(s.Value); err != nil {
				return err
			}
		case *Return:
			if s.Value != nil {
				if err := c.scanExprs(s.Value); err != nil {
					return err
				}
			}
		case *Assert:
			if err := c.scanExprs(s.Cond); err != nil {
				return err
			}
		case *Pass, *Break, *Continue, *Raise:
		case *Global:
			return bcErrf("%s: global declarations are closure-tier only", c.fn.Name)
		case *Try:
			return bcErrf("%s: try/except is closure-tier only", c.fn.Name)
		case *Import:
			return bcErrf("%s: function-level import is closure-tier only", c.fn.Name)
		case *Del:
			return bcErrf("%s: del is closure-tier only", c.fn.Name)
		case *FuncDef, *ClassDef:
			return bcErrf("%s: nested definitions are closure-tier only", c.fn.Name)
		default:
			return bcErrf("%s: unsupported statement %T", c.fn.Name, st)
		}
	}
	return nil
}

// scanTarget binds assignment-target names.
func (c *bcompiler) scanTarget(t Expr, fresh bool) {
	switch x := t.(type) {
	case *Name:
		c.addLocal(x.ID, fresh)
	case *TupleLit:
		for _, sub := range x.Items {
			c.scanTarget(sub, false)
		}
	}
	// Index/Attr targets bind no local; the codegen pass guards them.
}

// scanExprs walks an expression for comprehension targets (which bind
// in the enclosing scope, Python-2 style, matching the interpreter)
// and rejects expression forms outside the subset.
func (c *bcompiler) scanExprs(e Expr) error {
	switch x := e.(type) {
	case nil, *Const, *Name:
	case *BinOp:
		if err := c.scanExprs(x.Left); err != nil {
			return err
		}
		return c.scanExprs(x.Right)
	case *UnaryOp:
		return c.scanExprs(x.Operand)
	case *BoolOp:
		if err := c.scanExprs(x.Left); err != nil {
			return err
		}
		return c.scanExprs(x.Right)
	case *Compare:
		if err := c.scanExprs(x.Left); err != nil {
			return err
		}
		for _, cp := range x.Comps {
			if err := c.scanExprs(cp); err != nil {
				return err
			}
		}
	case *IfExp:
		for _, sub := range []Expr{x.Cond, x.Then, x.Else} {
			if err := c.scanExprs(sub); err != nil {
				return err
			}
		}
	case *Call:
		if len(x.KwNames) > 0 {
			return bcErrf("%s: keyword arguments are closure-tier only", c.fn.Name)
		}
		if x.StarArg != nil {
			return bcErrf("%s: *arg splat is closure-tier only", c.fn.Name)
		}
		if err := c.scanExprs(x.Fn); err != nil {
			return err
		}
		for _, a := range x.Args {
			if err := c.scanExprs(a); err != nil {
				return err
			}
		}
	case *Attr:
		return c.scanExprs(x.Obj)
	case *Index:
		if err := c.scanExprs(x.Obj); err != nil {
			return err
		}
		return c.scanExprs(x.Key)
	case *SliceExpr:
		for _, sub := range []Expr{x.Obj, x.Lo, x.Hi, x.Step} {
			if err := c.scanExprs(sub); err != nil {
				return err
			}
		}
	case *ListLit:
		for _, it := range x.Items {
			if err := c.scanExprs(it); err != nil {
				return err
			}
		}
	case *TupleLit:
		for _, it := range x.Items {
			if err := c.scanExprs(it); err != nil {
				return err
			}
		}
	case *SetLit:
		for _, it := range x.Items {
			if err := c.scanExprs(it); err != nil {
				return err
			}
		}
	case *DictLit:
		for i := range x.Keys {
			if err := c.scanExprs(x.Keys[i]); err != nil {
				return err
			}
			if err := c.scanExprs(x.Vals[i]); err != nil {
				return err
			}
		}
	case *Comp:
		if x.Kind == 'g' {
			return bcErrf("%s: generator expressions are closure-tier only", c.fn.Name)
		}
		for _, cf := range x.Fors {
			c.scanTarget(cf.Target, false)
			if err := c.scanExprs(cf.Iter); err != nil {
				return err
			}
			for _, cond := range cf.Ifs {
				if err := c.scanExprs(cond); err != nil {
					return err
				}
			}
		}
		return c.scanExprs(x.Elt)
	case *Lambda:
		return bcErrf("%s: nested lambdas are closure-tier only", c.fn.Name)
	case *Yield:
		return bcErrf("%s: yield is closure-tier only", c.fn.Name)
	default:
		return bcErrf("%s: unsupported expression %T", c.fn.Name, e)
	}
	return nil
}

// freshExpr reports whether evaluating e always yields a freshly
// constructed container.
func (c *bcompiler) freshExpr(e Expr) bool {
	switch x := e.(type) {
	case *ListLit, *TupleLit, *DictLit, *SetLit:
		return true
	case *Comp:
		return x.Kind == 'l' || x.Kind == 's'
	case *Call:
		if n, ok := x.Fn.(*Name); ok {
			if _, shadowed := c.slots[n.ID]; !shadowed && vmFreshBuiltins[n.ID] {
				return true
			}
		}
		if a, ok := x.Fn.(*Attr); ok && vmFreshMethods[a.Name] {
			return true
		}
	}
	return false
}

// freshLocal reports whether e names a fresh local.
func (c *bcompiler) freshLocal(e Expr) bool {
	n, ok := e.(*Name)
	return ok && c.fresh[n.ID]
}

// ---- statement codegen ----

func (c *bcompiler) block(body []Stmt) error {
	for _, st := range body {
		if err := c.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (c *bcompiler) stmt(st Stmt) error {
	switch s := st.(type) {
	case *ExprStmt:
		_, err := c.expr(s.Value)
		return err
	case *Assign:
		v, err := c.expr(s.Value)
		if err != nil {
			return err
		}
		for _, t := range s.Targets {
			if err := c.assign(t, v); err != nil {
				return err
			}
		}
		return nil
	case *AugAssign:
		return c.augAssign(s)
	case *Return:
		r := 0
		if s.Value != nil {
			var err error
			r, err = c.expr(s.Value)
			if err != nil {
				return err
			}
		} else {
			r = c.temp()
			c.emit(Instr{Op: OpConst, Dst: r, Val: data.Null})
		}
		c.emit(Instr{Op: OpReturn, A: r})
		return nil
	case *If:
		cond, err := c.expr(s.Cond)
		if err != nil {
			return err
		}
		jf := c.emit(Instr{Op: OpJumpIfFalse, A: cond})
		if err := c.block(s.Body); err != nil {
			return err
		}
		if len(s.Else) > 0 {
			jend := c.emit(Instr{Op: OpJump})
			c.patch(jf, c.pc())
			if err := c.block(s.Else); err != nil {
				return err
			}
			c.patch(jend, c.pc())
		} else {
			c.patch(jf, c.pc())
		}
		return nil
	case *While:
		top := c.pc()
		c.emit(Instr{Op: OpCheck, Line: s.Line})
		cond, err := c.expr(s.Cond)
		if err != nil {
			return err
		}
		jexit := c.emit(Instr{Op: OpJumpIfFalse, A: cond})
		c.loops = append(c.loops, bcLoop{contTarget: top})
		if err := c.block(s.Body); err != nil {
			return err
		}
		c.emit(Instr{Op: OpJump, A: top})
		exit := c.pc()
		c.patch(jexit, exit)
		lp := c.loops[len(c.loops)-1]
		c.loops = c.loops[:len(c.loops)-1]
		for _, b := range lp.breaks {
			c.patch(b, exit)
		}
		return nil
	case *For:
		iter, err := c.expr(s.Iter)
		if err != nil {
			return err
		}
		snap, state := c.temp(), c.temp()
		c.emit(Instr{Op: OpIterInit, Dst: snap, A: iter, B: state})
		top := c.pc()
		var dst int
		tup, isTup := s.Target.(*TupleLit)
		if isTup {
			dst = c.temp()
		} else {
			n, ok := s.Target.(*Name)
			if !ok {
				return bcErrf("%s: unsupported for-loop target %T", c.fn.Name, s.Target)
			}
			dst = c.slots[n.ID]
		}
		next := c.emit(Instr{Op: OpIterNext, Dst: dst, A: snap, B: state, Line: s.Line})
		if isTup {
			xs := make([]int, len(tup.Items))
			for i, sub := range tup.Items {
				n, ok := sub.(*Name)
				if !ok {
					return bcErrf("%s: unsupported unpack target %T", c.fn.Name, sub)
				}
				xs[i] = c.slots[n.ID]
			}
			c.emit(Instr{Op: OpUnpack, A: dst, Xs: xs})
		}
		c.loops = append(c.loops, bcLoop{contTarget: top})
		if err := c.block(s.Body); err != nil {
			return err
		}
		c.emit(Instr{Op: OpJump, A: top})
		exit := c.pc()
		c.patch(next, exit)
		lp := c.loops[len(c.loops)-1]
		c.loops = c.loops[:len(c.loops)-1]
		for _, b := range lp.breaks {
			c.patch(b, exit)
		}
		return nil
	case *Break:
		if len(c.loops) == 0 {
			return bcErrf("%s: 'break' outside loop", c.fn.Name)
		}
		j := c.emit(Instr{Op: OpJump})
		c.loops[len(c.loops)-1].breaks = append(c.loops[len(c.loops)-1].breaks, j)
		return nil
	case *Continue:
		if len(c.loops) == 0 {
			return bcErrf("%s: 'continue' outside loop", c.fn.Name)
		}
		c.emit(Instr{Op: OpJump, A: c.loops[len(c.loops)-1].contTarget})
		return nil
	case *Pass:
		return nil
	case *Raise:
		// Raising is the error path: the closure tier re-runs the row and
		// produces the authoritative exception.
		c.bail("raise")
		return nil
	case *Assert:
		cond, err := c.expr(s.Cond)
		if err != nil {
			return err
		}
		jok := c.emit(Instr{Op: OpJumpIfTrue, A: cond})
		c.bail("assert")
		c.patch(jok, c.pc())
		return nil
	}
	return bcErrf("%s: unsupported statement %T", c.fn.Name, st)
}

func (c *bcompiler) assign(t Expr, v int) error {
	switch x := t.(type) {
	case *Name:
		c.emit(Instr{Op: OpMove, Dst: c.slots[x.ID], A: v})
		return nil
	case *TupleLit:
		xs := make([]int, len(x.Items))
		for i, sub := range x.Items {
			n, ok := sub.(*Name)
			if !ok {
				return bcErrf("%s: unsupported unpack target %T", c.fn.Name, sub)
			}
			xs[i] = c.slots[n.ID]
		}
		c.emit(Instr{Op: OpUnpack, A: v, Xs: xs})
		return nil
	case *Index:
		if !c.freshLocal(x.Obj) {
			// Mutation of state that may outlive the call: the row must
			// run on the closure tier, which this bail arranges before
			// anything changed.
			c.bail("store to non-fresh container")
			return nil
		}
		k, err := c.expr(x.Key)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpSetIndex, A: c.slots[x.Obj.(*Name).ID], B: k, C: v})
		return nil
	case *Attr:
		c.bail("attribute store")
		return nil
	}
	return bcErrf("%s: unsupported assignment target %T", c.fn.Name, t)
}

func (c *bcompiler) augAssign(s *AugAssign) error {
	switch t := s.Target.(type) {
	case *Name:
		slot := c.slots[t.ID]
		rhs, err := c.expr(s.Value)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpBinOp, Dst: slot, Sym: s.Op, A: slot, B: rhs})
		return nil
	case *Index:
		if !c.freshLocal(t.Obj) {
			c.bail("augmented store to non-fresh container")
			return nil
		}
		obj := c.slots[t.Obj.(*Name).ID]
		k, err := c.expr(t.Key)
		if err != nil {
			return err
		}
		cur := c.temp()
		c.emit(Instr{Op: OpIndex, Dst: cur, A: obj, B: k})
		rhs, err := c.expr(s.Value)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpBinOp, Dst: cur, Sym: s.Op, A: cur, B: rhs})
		c.emit(Instr{Op: OpSetIndex, A: obj, B: k, C: cur})
		return nil
	}
	c.bail("augmented store")
	return nil
}

// ---- expression codegen ----

func (c *bcompiler) expr(e Expr) (int, error) {
	switch x := e.(type) {
	case *Const:
		r := c.temp()
		c.emit(Instr{Op: OpConst, Dst: r, Val: x.Value})
		return r, nil
	case *Name:
		if slot, ok := c.slots[x.ID]; ok {
			return slot, nil
		}
		r := c.temp()
		c.emit(Instr{Op: OpLoadGlobal, Dst: r, Sym: x.ID, ref: resolveGlobal(c.fn.Env, x.ID)})
		return r, nil
	case *BinOp:
		a, err := c.expr(x.Left)
		if err != nil {
			return 0, err
		}
		b, err := c.expr(x.Right)
		if err != nil {
			return 0, err
		}
		r := c.temp()
		c.emit(Instr{Op: OpBinOp, Dst: r, Sym: x.Op, A: a, B: b})
		return r, nil
	case *UnaryOp:
		a, err := c.expr(x.Operand)
		if err != nil {
			return 0, err
		}
		r := c.temp()
		c.emit(Instr{Op: OpUnaryOp, Dst: r, Sym: x.Op, A: a})
		return r, nil
	case *BoolOp:
		r := c.temp()
		a, err := c.expr(x.Left)
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: OpMove, Dst: r, A: a})
		var j int
		if x.Op == "and" {
			j = c.emit(Instr{Op: OpJumpIfFalse, A: r})
		} else {
			j = c.emit(Instr{Op: OpJumpIfTrue, A: r})
		}
		b, err := c.expr(x.Right)
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: OpMove, Dst: r, A: b})
		c.patch(j, c.pc())
		return r, nil
	case *Compare:
		r := c.temp()
		left, err := c.expr(x.Left)
		if err != nil {
			return 0, err
		}
		var shorts []int
		for i, op := range x.Ops {
			right, err := c.expr(x.Comps[i])
			if err != nil {
				return 0, err
			}
			c.emit(Instr{Op: OpCompare, Dst: r, Sym: op, A: left, B: right})
			if i < len(x.Ops)-1 {
				shorts = append(shorts, c.emit(Instr{Op: OpJumpIfFalse, A: r}))
			}
			left = right
		}
		for _, j := range shorts {
			c.patch(j, c.pc())
		}
		return r, nil
	case *IfExp:
		r := c.temp()
		cond, err := c.expr(x.Cond)
		if err != nil {
			return 0, err
		}
		jf := c.emit(Instr{Op: OpJumpIfFalse, A: cond})
		tv, err := c.expr(x.Then)
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: OpMove, Dst: r, A: tv})
		jend := c.emit(Instr{Op: OpJump})
		c.patch(jf, c.pc())
		ev, err := c.expr(x.Else)
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: OpMove, Dst: r, A: ev})
		c.patch(jend, c.pc())
		return r, nil
	case *Call:
		return c.call(x)
	case *Attr:
		obj, err := c.expr(x.Obj)
		if err != nil {
			return 0, err
		}
		r := c.temp()
		c.emit(Instr{Op: OpGetAttr, Dst: r, A: obj, Sym: x.Name})
		return r, nil
	case *Index:
		obj, err := c.expr(x.Obj)
		if err != nil {
			return 0, err
		}
		k, err := c.expr(x.Key)
		if err != nil {
			return 0, err
		}
		r := c.temp()
		c.emit(Instr{Op: OpIndex, Dst: r, A: obj, B: k})
		return r, nil
	case *SliceExpr:
		obj, err := c.expr(x.Obj)
		if err != nil {
			return 0, err
		}
		part := func(e Expr) (int, error) {
			if e == nil {
				r := c.temp()
				c.emit(Instr{Op: OpConst, Dst: r, Val: data.Null})
				return r, nil
			}
			return c.expr(e)
		}
		lo, err := part(x.Lo)
		if err != nil {
			return 0, err
		}
		hi, err := part(x.Hi)
		if err != nil {
			return 0, err
		}
		st, err := part(x.Step)
		if err != nil {
			return 0, err
		}
		r := c.temp()
		c.emit(Instr{Op: OpSlice, Dst: r, Xs: []int{obj, lo, hi, st}})
		return r, nil
	case *ListLit:
		return c.makeSeq(OpMakeList, x.Items)
	case *TupleLit:
		return c.makeSeq(OpMakeList, x.Items)
	case *SetLit:
		return c.makeSeq(OpMakeSet, x.Items)
	case *DictLit:
		xs := make([]int, 0, 2*len(x.Keys))
		for i := range x.Keys {
			k, err := c.expr(x.Keys[i])
			if err != nil {
				return 0, err
			}
			v, err := c.expr(x.Vals[i])
			if err != nil {
				return 0, err
			}
			xs = append(xs, k, v)
		}
		r := c.temp()
		c.emit(Instr{Op: OpMakeDict, Dst: r, Xs: xs})
		return r, nil
	case *Comp:
		return c.comp(x)
	}
	return 0, bcErrf("%s: unsupported expression %T", c.fn.Name, e)
}

func (c *bcompiler) makeSeq(op VMOp, items []Expr) (int, error) {
	xs := make([]int, len(items))
	for i, it := range items {
		r, err := c.expr(it)
		if err != nil {
			return 0, err
		}
		xs[i] = r
	}
	r := c.temp()
	c.emit(Instr{Op: op, Dst: r, Xs: xs})
	return r, nil
}

func (c *bcompiler) call(x *Call) (int, error) {
	// Method-call form: obj.name(args). Mutating methods are only
	// emitted against fresh receivers (see the restartability
	// invariant); everything else bails at this point, before any
	// observable state changed.
	if a, ok := x.Fn.(*Attr); ok {
		if vmMutatingMethods[a.Name] && !c.freshLocal(a.Obj) {
			if _, isName := a.Obj.(*Name); isName || !c.freshMethodChain(a.Obj) {
				r := c.temp()
				c.bail("mutating method on non-fresh receiver")
				return r, nil
			}
		}
		obj, err := c.expr(a.Obj)
		if err != nil {
			return 0, err
		}
		xs := make([]int, len(x.Args))
		for i, arg := range x.Args {
			r, err := c.expr(arg)
			if err != nil {
				return 0, err
			}
			xs[i] = r
		}
		r := c.temp()
		c.emit(Instr{Op: OpCallMethod, Dst: r, A: obj, Sym: a.Name, Xs: xs})
		return r, nil
	}
	fn, err := c.expr(x.Fn)
	if err != nil {
		return 0, err
	}
	xs := make([]int, len(x.Args))
	for i, arg := range x.Args {
		r, err := c.expr(arg)
		if err != nil {
			return 0, err
		}
		xs[i] = r
	}
	r := c.temp()
	c.emit(Instr{Op: OpCall, Dst: r, A: fn, Xs: xs})
	return r, nil
}

// freshMethodChain reports whether e is an expression whose value is a
// freshly constructed container (e.g. s.split(",") receiving .sort()).
func (c *bcompiler) freshMethodChain(e Expr) bool {
	return c.freshExpr(e)
}

func (c *bcompiler) comp(x *Comp) (int, error) {
	acc := c.temp()
	if x.Kind == 's' {
		c.emit(Instr{Op: OpMakeSet, Dst: acc})
	} else {
		c.emit(Instr{Op: OpMakeList, Dst: acc})
	}
	var rec func(depth int) error
	rec = func(depth int) error {
		if depth == len(x.Fors) {
			v, err := c.expr(x.Elt)
			if err != nil {
				return err
			}
			if x.Kind == 's' {
				c.emit(Instr{Op: OpSetAdd, A: acc, B: v})
			} else {
				c.emit(Instr{Op: OpListAppend, A: acc, B: v})
			}
			return nil
		}
		cf := x.Fors[depth]
		iter, err := c.expr(cf.Iter)
		if err != nil {
			return err
		}
		snap, state := c.temp(), c.temp()
		c.emit(Instr{Op: OpIterInit, Dst: snap, A: iter, B: state})
		top := c.pc()
		var dst int
		tup, isTup := cf.Target.(*TupleLit)
		if isTup {
			dst = c.temp()
		} else {
			n, ok := cf.Target.(*Name)
			if !ok {
				return bcErrf("%s: unsupported comprehension target %T", c.fn.Name, cf.Target)
			}
			dst = c.slots[n.ID]
		}
		next := c.emit(Instr{Op: OpIterNext, Dst: dst, A: snap, B: state, Line: x.Line})
		if isTup {
			xs := make([]int, len(tup.Items))
			for i, sub := range tup.Items {
				n, ok := sub.(*Name)
				if !ok {
					return bcErrf("%s: unsupported unpack target %T", c.fn.Name, sub)
				}
				xs[i] = c.slots[n.ID]
			}
			c.emit(Instr{Op: OpUnpack, A: dst, Xs: xs})
		}
		for _, cond := range cf.Ifs {
			cv, err := c.expr(cond)
			if err != nil {
				return err
			}
			c.emit(Instr{Op: OpJumpIfFalse, A: cv, B: top})
		}
		if err := rec(depth + 1); err != nil {
			return err
		}
		c.emit(Instr{Op: OpJump, A: top})
		c.patch(next, c.pc())
		return nil
	}
	if err := rec(0); err != nil {
		return 0, err
	}
	return acc, nil
}
