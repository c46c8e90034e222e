package pylite

import (
	"fmt"

	"qfusor/internal/data"
)

// The vectorized VM executes a Program once per row against a caller-
// provided register file, with no frame allocation, no name-map
// lookups and no per-statement dispatch through the AST. Semantics are
// shared with the interpreter and closure tiers by construction: every
// operator, comparison, index, slice and method call goes through the
// same ops.go/methods.go primitives the other tiers use, so the three
// tiers cannot drift apart.
//
// Any operation the VM cannot execute faithfully raises BailError; the
// caller (the FFI vector driver) re-runs that single row on the
// closure tier. The compiler's freshness invariant (bytecode.go)
// guarantees a bailing row has made no externally visible change, so
// the re-run is exact.

// BailError signals that a row must be re-executed on the closure
// tier. It is a control-flow signal, not a user-visible error.
type BailError struct{ Reason string }

func (e *BailError) Error() string { return "pylite: vm bail: " + e.Reason }

// IsVMBail reports whether err is a VM bail signal.
func IsVMBail(err error) bool {
	_, ok := err.(*BailError)
	return ok
}

func bailErr(reason string) error { return &BailError{Reason: reason} }

// callableValue reports whether v is a PyLite callable. The VM bails
// before passing callables into builtins (sorted key, map, filter):
// the callee could re-enter user code with arbitrary side effects,
// which would break the re-run guarantee.
func callableValue(v data.Value) bool {
	if v.Kind != data.KindObject {
		return false
	}
	switch v.P.(type) {
	case *FuncValue, *BoundMethod, *Builtin, *Class:
		return true
	}
	return false
}

// RunVM executes the program with regs as the register file. Callers
// place the arguments in regs[0:NumParams] (with Defaults filled for
// absent optionals) and must provide len(regs) >= NumRegs; registers
// above NumParams are cleared here when the program needs it (see
// Program.NeedsClear), which matches the closure tier's zero-valued
// slot initialization (the zero Value is Null). Programs that provably
// write every register before reading it skip the clear, so stale
// values from a reused file are never observable.
func (p *Program) RunVM(it *Interp, regs []data.Value) (data.Value, error) {
	if err := it.checkIntr(); err != nil {
		return data.Null, err
	}
	if pr := profActive.Load(); pr != nil {
		pr.maybeSample(p.Name, p.Line)
	}
	if p.NeedsClear {
		for _, r := range p.ClearRegs {
			regs[r] = data.Null
		}
	}
	instrs := p.Instrs
	for pc := 0; pc < len(instrs); {
		in := &instrs[pc]
		pc++
		switch in.Op {
		case OpConst:
			regs[in.Dst] = in.Val
		case OpMove:
			regs[in.Dst] = regs[in.A]
		case OpLoadGlobal:
			v, err := in.ref.load()
			if err != nil {
				return data.Null, err
			}
			regs[in.Dst] = v
		case OpBinOp:
			v, err := binOp(in.Sym, regs[in.A], regs[in.B])
			if err != nil {
				return data.Null, err
			}
			regs[in.Dst] = v
		case OpUnaryOp:
			v, err := unaryOp(in.Sym, regs[in.A])
			if err != nil {
				return data.Null, err
			}
			regs[in.Dst] = v
		case OpCompare:
			b, err := compareOp(in.Sym, regs[in.A], regs[in.B])
			if err != nil {
				return data.Null, err
			}
			regs[in.Dst] = data.Bool(b)
		case OpJump:
			pc = in.A
		case OpJumpIfFalse:
			if !regs[in.A].Truthy() {
				pc = in.B
			}
		case OpJumpIfTrue:
			if regs[in.A].Truthy() {
				pc = in.B
			}
		case OpCall:
			v, err := p.vmCall(it, regs, in)
			if err != nil {
				return data.Null, err
			}
			regs[in.Dst] = v
		case OpCallMethod:
			v, err := p.vmCallMethod(it, regs, in)
			if err != nil {
				return data.Null, err
			}
			regs[in.Dst] = v
		case OpGetAttr:
			v, err := getAttr(it.ctx, regs[in.A], in.Sym)
			if err != nil {
				return data.Null, err
			}
			regs[in.Dst] = v
		case OpIndex:
			v, err := getIndex(regs[in.A], regs[in.B])
			if err != nil {
				return data.Null, err
			}
			regs[in.Dst] = v
		case OpSlice:
			v, err := getSlice(regs[in.Xs[0]], regs[in.Xs[1]], regs[in.Xs[2]], regs[in.Xs[3]])
			if err != nil {
				return data.Null, err
			}
			regs[in.Dst] = v
		case OpSetIndex:
			if err := setIndex(regs[in.A], regs[in.B], regs[in.C]); err != nil {
				return data.Null, err
			}
		case OpMakeList:
			items := make([]data.Value, len(in.Xs))
			for i, r := range in.Xs {
				items[i] = regs[r]
			}
			regs[in.Dst] = data.NewList(items)
		case OpMakeDict:
			d := data.NewDict()
			dd := d.Dict()
			for i := 0; i < len(in.Xs); i += 2 {
				dd.Set(dictKey(regs[in.Xs[i]]), regs[in.Xs[i+1]])
			}
			regs[in.Dst] = d
		case OpMakeSet:
			s := NewSet()
			for _, r := range in.Xs {
				s.Add(regs[r])
			}
			regs[in.Dst] = data.Object(s)
		case OpListAppend:
			l := regs[in.A].List()
			if l == nil {
				return data.Null, typeErrf("'%s' object has no attribute 'append'", regs[in.A].TypeName())
			}
			l.Items = append(l.Items, regs[in.B])
		case OpSetAdd:
			s, ok := regs[in.A].P.(*Set)
			if !ok {
				return data.Null, typeErrf("'%s' object has no attribute 'add'", regs[in.A].TypeName())
			}
			s.Add(regs[in.B])
		case OpUnpack:
			if err := vmUnpack(it, regs, in); err != nil {
				return data.Null, err
			}
		case OpIterInit:
			snap, err := vmIterSnapshot(regs[in.A])
			if err != nil {
				return data.Null, err
			}
			regs[in.Dst] = snap
			if r, ok := snap.P.(*RangeObj); ok && snap.Kind == data.KindObject {
				regs[in.B] = data.Int(r.Start)
			} else {
				regs[in.B] = data.Int(0)
			}
		case OpIterNext:
			if err := it.checkIntr(); err != nil {
				return data.Null, err
			}
			if pr := profActive.Load(); pr != nil {
				pr.maybeSample(p.Name, in.Line)
			}
			v, ok := vmIterNext(regs[in.A], &regs[in.B])
			if !ok {
				pc = in.C
				continue
			}
			regs[in.Dst] = v
		case OpCheck:
			if err := it.checkIntr(); err != nil {
				return data.Null, err
			}
			if pr := profActive.Load(); pr != nil {
				pr.maybeSample(p.Name, in.Line)
			}
		case OpReturn:
			return regs[in.A], nil
		case OpBail:
			return data.Null, bailErr(in.Sym)
		default:
			return data.Null, bailErr(fmt.Sprintf("unknown opcode %d", in.Op))
		}
	}
	return data.Null, nil
}

// vmCall executes an OpCall. Only builtins with pure, non-callable
// arguments run; everything else bails (user functions, classes, bound
// methods, print, aliased mutating methods).
func (p *Program) vmCall(it *Interp, regs []data.Value, in *Instr) (data.Value, error) {
	fn := regs[in.A]
	if fn.Kind != data.KindObject {
		return data.Null, typeErrf("'%s' object is not callable", fn.TypeName())
	}
	b, ok := fn.P.(*Builtin)
	if !ok {
		return data.Null, bailErr("call of non-builtin callable")
	}
	// print writes to the host before the row could bail later; aliased
	// bound mutators (f = xs.append) mutate through the alias, invisible
	// to the compiler's freshness analysis. Both must run on the closure
	// tier (Builtin.effect).
	if b.effect {
		return data.Null, bailErr("side-effecting builtin " + b.Name)
	}
	// Args stage through the interpreter's scratch slice: callees
	// receive the values (whose referents are already heap-safe) but
	// never retain the slice itself — callable arguments bail, so no
	// callee can re-enter the VM while the scratch is live — making the
	// per-call allocation pure waste.
	args := it.vmScratch[:0]
	for _, r := range in.Xs {
		if callableValue(regs[r]) {
			return data.Null, bailErr("callable argument to builtin " + b.Name)
		}
		args = append(args, regs[r])
	}
	it.vmScratch = args[:0]
	return b.Fn(it.ctx, args, nil)
}

// vmCallMethod executes an OpCallMethod. String/list/dict/set
// receivers use the shared method tables; module attributes resolve to
// builtins (json.loads, math.sqrt); any other receiver bails.
func (p *Program) vmCallMethod(it *Interp, regs []data.Value, in *Instr) (data.Value, error) {
	recv := regs[in.A]
	if recv.Kind == data.KindObject {
		switch o := recv.P.(type) {
		case *ModuleObj:
			fv, ok := o.Attrs[in.Sym]
			if !ok {
				return data.Null, attrErrf("module '%s' has no attribute '%s'", o.Name, in.Sym)
			}
			b, isB := fv.P.(*Builtin)
			if !isB {
				return data.Null, bailErr("module attribute is not a builtin")
			}
			args := it.vmScratch[:0]
			for _, r := range in.Xs {
				if callableValue(regs[r]) {
					return data.Null, bailErr("callable argument to " + o.Name + "." + in.Sym)
				}
				args = append(args, regs[r])
			}
			it.vmScratch = args[:0]
			return b.Fn(it.ctx, args, nil)
		case *Set, *MatchObj:
			// falls through to callMethod below
		default:
			return data.Null, bailErr("method call on runtime object")
		}
	}
	args := it.vmScratch[:0]
	for _, r := range in.Xs {
		if callableValue(regs[r]) {
			return data.Null, bailErr("callable argument to method " + in.Sym)
		}
		args = append(args, regs[r])
	}
	it.vmScratch = args[:0]
	return callMethod(it.ctx, recv, in.Sym, args, nil)
}

// vmUnpack destructures regs[in.A] into the target slots, mirroring
// the interpreter's tuple-assignment semantics.
func vmUnpack(it *Interp, regs []data.Value, in *Instr) error {
	var items []data.Value
	if err := it.Iterate(regs[in.A], func(x data.Value) error {
		items = append(items, x)
		return nil
	}); err != nil {
		return err
	}
	if len(items) != len(in.Xs) {
		return valueErrf("cannot unpack %d values into %d targets", len(items), len(in.Xs))
	}
	for i, slot := range in.Xs {
		regs[slot] = items[i]
	}
	return nil
}

// vmIterSnapshot normalizes an iterable into a register-resident form
// a plain integer cursor can walk: lists/dict-keys/sets snapshot to a
// list value, strings iterate in place, ranges keep their object.
// Generators and everything else bail — their iteration protocol needs
// real frames.
func vmIterSnapshot(v data.Value) (data.Value, error) {
	switch v.Kind {
	case data.KindList:
		// Same snapshot rule as sliceIter: capture the Items slice header
		// so later rebinds of the source name don't affect the loop.
		return data.NewList(v.List().Items), nil
	case data.KindString:
		return v, nil
	case data.KindDict:
		d := v.Dict()
		items := make([]data.Value, len(d.Keys))
		for i, k := range d.Keys {
			items[i] = data.Str(k)
		}
		return data.NewList(items), nil
	case data.KindObject:
		switch o := v.P.(type) {
		case *RangeObj:
			return data.Object(o), nil
		case *Set:
			return data.NewList(o.Items()), nil
		}
	}
	return data.Null, bailErr("iteration over " + v.TypeName())
}

// vmIterNext advances the cursor over a normalized iterable, returning
// the next element (false at exhaustion).
func vmIterNext(snap data.Value, cursor *data.Value) (data.Value, bool) {
	switch snap.Kind {
	case data.KindList:
		items := snap.List().Items
		i := cursor.I
		if i >= int64(len(items)) {
			return data.Null, false
		}
		cursor.I = i + 1
		return items[i], true
	case data.KindString:
		i := cursor.I
		if i >= int64(len(snap.S)) {
			return data.Null, false
		}
		cursor.I = i + 1
		return data.Str(snap.S[i : i+1]), true
	case data.KindObject:
		r := snap.P.(*RangeObj)
		cur := cursor.I
		if (r.Step > 0 && cur >= r.Stop) || (r.Step < 0 && cur <= r.Stop) {
			return data.Null, false
		}
		cursor.I = cur + r.Step
		return data.Int(cur), true
	}
	return data.Null, false
}
