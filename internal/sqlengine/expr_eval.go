package sqlengine

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"

	"qfusor/internal/data"
)

// sqlBinOp implements SQL scalar operators with NULL propagation.
func sqlBinOp(op string, a, b data.Value) (data.Value, error) {
	switch op {
	case "AND":
		// Three-valued logic reduced to two: unknown behaves as false.
		return data.Bool(a.Truthy() && b.Truthy()), nil
	case "OR":
		return data.Bool(a.Truthy() || b.Truthy()), nil
	}
	if a.IsNull() || b.IsNull() {
		return data.Null, nil
	}
	switch op {
	case "=", "!=":
		eq := data.Equal(a, b)
		if op == "!=" {
			eq = !eq
		}
		return data.Bool(eq), nil
	case "<", "<=", ">", ">=":
		c, ok := data.Compare(a, b)
		if !ok {
			// Mixed-type comparison: compare textual forms (SQLite-ish).
			c = strings.Compare(a.String(), b.String())
		}
		switch op {
		case "<":
			return data.Bool(c < 0), nil
		case "<=":
			return data.Bool(c <= 0), nil
		case ">":
			return data.Bool(c > 0), nil
		default:
			return data.Bool(c >= 0), nil
		}
	case "||":
		return data.Str(a.String() + b.String()), nil
	case "LIKE":
		re, err := likePattern(b.String())
		if err != nil {
			return data.Null, err
		}
		return data.Bool(re.MatchString(a.String())), nil
	case "+", "-", "*", "/", "%":
		return sqlArith(op, a, b)
	}
	return data.Null, fmt.Errorf("sql: unsupported operator %q", op)
}

// sqlArith is SQL arithmetic. Two ints (bools count as 0/1) compute in
// exact int64; anything else computes in float64, a string through the
// number it spells — so arithmetic over a string is float on every row,
// as the binder types it, and NULL where the string is not a number.
func sqlArith(op string, a, b data.Value) (data.Value, error) {
	intLike := func(v data.Value) bool { return v.Kind == data.KindInt || v.Kind == data.KindBool }
	if intLike(a) && intLike(b) {
		return intArith(op, a.I, b.I)
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok && a.Kind == data.KindString {
		af, aok = parseNum(a.S)
	}
	if !bok && b.Kind == data.KindString {
		bf, bok = parseNum(b.S)
	}
	if !aok || !bok {
		return data.Null, nil
	}
	switch op {
	case "+":
		return data.Float(af + bf), nil
	case "-":
		return data.Float(af - bf), nil
	case "*":
		return data.Float(af * bf), nil
	case "/":
		if bf == 0 {
			return data.Null, nil
		}
		return data.Float(af / bf), nil
	case "%":
		if bf == 0 {
			return data.Null, nil
		}
		return data.Float(math.Mod(af, bf)), nil
	}
	return data.Null, fmt.Errorf("sql: unsupported arithmetic %q", op)
}

// intArith is int64 arithmetic; a zero divisor yields NULL.
func intArith(op string, a, b int64) (data.Value, error) {
	switch op {
	case "+":
		return data.Int(a + b), nil
	case "-":
		return data.Int(a - b), nil
	case "*":
		return data.Int(a * b), nil
	case "/", "%":
		if b == 0 {
			return data.Null, nil
		}
		if op == "/" {
			return data.Int(a / b), nil
		}
		return data.Int(a % b), nil
	}
	return data.Null, fmt.Errorf("sql: unsupported arithmetic %q", op)
}

func parseNum(s string) (float64, bool) {
	var f float64
	var seen bool
	i := 0
	neg := false
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		neg = s[i] == '-'
		i++
	}
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		f = f*10 + float64(s[i]-'0')
		seen = true
	}
	if i < len(s) && s[i] == '.' {
		i++
		scale := 0.1
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			f += float64(s[i]-'0') * scale
			scale /= 10
			seen = true
		}
	}
	if !seen || i != len(s) {
		return 0, false
	}
	if neg {
		f = -f
	}
	return f, true
}

var likeCache sync.Map // pattern -> *regexp.Regexp

// likePattern converts a SQL LIKE pattern to a compiled regexp.
func likePattern(p string) (*regexp.Regexp, error) {
	if re, ok := likeCache.Load(p); ok {
		return re.(*regexp.Regexp), nil
	}
	var b strings.Builder
	b.WriteString("(?is)^")
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(p[i])))
		}
	}
	b.WriteString("$")
	re, err := regexp.Compile(b.String())
	if err != nil {
		return nil, fmt.Errorf("sql: bad LIKE pattern %q: %w", p, err)
	}
	likeCache.Store(p, re)
	return re, nil
}

// castValue implements CAST.
func castValue(v data.Value, kind data.Kind) data.Value {
	if v.IsNull() {
		return data.Null
	}
	switch kind {
	case data.KindInt:
		if i, ok := v.AsInt(); ok {
			return data.Int(i)
		}
		if f, ok := parseNum(strings.TrimSpace(v.S)); ok {
			return data.Int(int64(f))
		}
		return data.Int(0)
	case data.KindFloat:
		if f, ok := v.AsFloat(); ok {
			return data.Float(f)
		}
		if f, ok := parseNum(strings.TrimSpace(v.S)); ok {
			return data.Float(f)
		}
		return data.Float(0)
	case data.KindBool:
		return data.Bool(v.Truthy())
	case data.KindString:
		return data.Str(v.String())
	default:
		return v
	}
}

// evalNativeScalar evaluates a built-in scalar function on one row.
func evalNativeScalar(name string, args []data.Value) (data.Value, error) {
	switch strings.ToLower(name) {
	case "length":
		if args[0].IsNull() {
			return data.Null, nil
		}
		return data.Int(int64(len(args[0].String()))), nil
	case "abs":
		if args[0].IsNull() {
			return data.Null, nil
		}
		if args[0].Kind == data.KindInt {
			if args[0].I < 0 {
				return data.Int(-args[0].I), nil
			}
			return args[0], nil
		}
		f, _ := args[0].AsFloat()
		return data.Float(math.Abs(f)), nil
	case "round":
		if args[0].IsNull() {
			return data.Null, nil
		}
		f, _ := args[0].AsFloat()
		if len(args) > 1 {
			nd, _ := args[1].AsInt()
			scale := math.Pow(10, float64(nd))
			return data.Float(math.Round(f*scale) / scale), nil
		}
		return data.Float(math.Round(f)), nil
	case "coalesce", "ifnull":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return data.Null, nil
	case "nullif":
		if len(args) == 2 && data.Equal(args[0], args[1]) {
			return data.Null, nil
		}
		return args[0], nil
	case "substr":
		if args[0].IsNull() {
			return data.Null, nil
		}
		s := args[0].String()
		start, _ := args[1].AsInt()
		if start > 0 {
			start--
		} else if start < 0 {
			start += int64(len(s))
		}
		if start < 0 {
			start = 0
		}
		if start > int64(len(s)) {
			start = int64(len(s))
		}
		end := int64(len(s))
		if len(args) > 2 {
			n, _ := args[2].AsInt()
			end = start + n
			if end > int64(len(s)) {
				end = int64(len(s))
			}
			if end < start {
				end = start
			}
		}
		return data.Str(s[start:end]), nil
	case "instr":
		if args[0].IsNull() || args[1].IsNull() {
			return data.Null, nil
		}
		return data.Int(int64(strings.Index(args[0].String(), args[1].String()) + 1)), nil
	case "trim":
		if args[0].IsNull() {
			return data.Null, nil
		}
		// Optional second argument names the cutset (SQL TRIM(x, chars)).
		if len(args) > 1 {
			if args[1].IsNull() {
				return data.Null, nil
			}
			return data.Str(strings.Trim(args[0].String(), args[1].String())), nil
		}
		return data.Str(strings.TrimSpace(args[0].String())), nil
	case "sqlupper":
		if args[0].IsNull() {
			return data.Null, nil
		}
		return data.Str(strings.ToUpper(args[0].String())), nil
	case "sqllower":
		if args[0].IsNull() {
			return data.Null, nil
		}
		return data.Str(strings.ToLower(args[0].String())), nil
	case "typeof":
		return data.Str(args[0].Kind.String()), nil
	}
	return data.Null, fmt.Errorf("sql: unknown function %s", name)
}

// EvalPure evaluates a UDF-free bound expression over a row with SQL
// semantics (used by QFusor's compiled traces for offloaded relational
// expressions).
func EvalPure(x SQLExpr, row []data.Value) (data.Value, error) { return evalRow(x, row) }

// evalRow evaluates a UDF-free bound expression against one boxed row.
// It is the one definition of SQL scalar semantics: the compiled
// programs (exec_expr_vec.go) specialize it into typed kernels and call
// it for everything else. A UDF call is never evaluated here: a program
// compiles it to a crossing of its own.
func evalRow(x SQLExpr, row []data.Value) (data.Value, error) {
	switch ex := x.(type) {
	case *ColRef:
		if ex.Index < 0 || ex.Index >= len(row) {
			return data.Null, fmt.Errorf("sql: unbound column %s", ex)
		}
		return row[ex.Index], nil
	case *Lit:
		return ex.Value, nil
	case *BinExpr:
		// AND/OR short-circuit.
		if ex.Op == "AND" {
			l, err := evalRow(ex.L, row)
			if err != nil {
				return data.Null, err
			}
			if !l.Truthy() {
				return data.Bool(false), nil
			}
			r, err := evalRow(ex.R, row)
			if err != nil {
				return data.Null, err
			}
			return data.Bool(r.Truthy()), nil
		}
		if ex.Op == "OR" {
			l, err := evalRow(ex.L, row)
			if err != nil {
				return data.Null, err
			}
			if l.Truthy() {
				return data.Bool(true), nil
			}
			r, err := evalRow(ex.R, row)
			if err != nil {
				return data.Null, err
			}
			return data.Bool(r.Truthy()), nil
		}
		l, err := evalRow(ex.L, row)
		if err != nil {
			return data.Null, err
		}
		r, err := evalRow(ex.R, row)
		if err != nil {
			return data.Null, err
		}
		return sqlBinOp(ex.Op, l, r)
	case *UnaryExpr:
		v, err := evalRow(ex.E, row)
		if err != nil {
			return data.Null, err
		}
		if ex.Op == "NOT" {
			return data.Bool(!v.Truthy()), nil
		}
		return sqlBinOp("-", data.Int(0), v)
	case *FuncExpr:
		if ex.UDF != nil {
			return data.Null, fmt.Errorf("sql: %s UDF %s in a row expression", ex.UDF.Kind, ex.Name)
		}
		args := make([]data.Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := evalRow(a, row)
			if err != nil {
				return data.Null, err
			}
			args[i] = v
		}
		return evalNativeScalar(ex.Name, args)
	case *CaseExpr:
		var operand data.Value
		if ex.Operand != nil {
			v, err := evalRow(ex.Operand, row)
			if err != nil {
				return data.Null, err
			}
			operand = v
		}
		for i := range ex.Whens {
			w, err := evalRow(ex.Whens[i], row)
			if err != nil {
				return data.Null, err
			}
			match := false
			if ex.Operand != nil {
				match = data.Equal(operand, w)
			} else {
				match = w.Truthy()
			}
			if match {
				return evalRow(ex.Thens[i], row)
			}
		}
		if ex.Else != nil {
			return evalRow(ex.Else, row)
		}
		return data.Null, nil
	case *BetweenExpr:
		v, err := evalRow(ex.E, row)
		if err != nil {
			return data.Null, err
		}
		lo, err := evalRow(ex.Lo, row)
		if err != nil {
			return data.Null, err
		}
		hi, err := evalRow(ex.Hi, row)
		if err != nil {
			return data.Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return data.Null, nil
		}
		ge, _ := sqlBinOp(">=", v, lo)
		le, _ := sqlBinOp("<=", v, hi)
		res := ge.Truthy() && le.Truthy()
		if ex.Not {
			res = !res
		}
		return data.Bool(res), nil
	case *InExpr:
		v, err := evalRow(ex.E, row)
		if err != nil {
			return data.Null, err
		}
		found := false
		for _, item := range ex.List {
			iv, err := evalRow(item, row)
			if err != nil {
				return data.Null, err
			}
			if data.Equal(v, iv) {
				found = true
				break
			}
		}
		if ex.Not {
			found = !found
		}
		return data.Bool(found), nil
	case *IsNullExpr:
		v, err := evalRow(ex.E, row)
		if err != nil {
			return data.Null, err
		}
		isNull := v.IsNull()
		if ex.Not {
			isNull = !isNull
		}
		return data.Bool(isNull), nil
	case *CastExpr:
		v, err := evalRow(ex.E, row)
		if err != nil {
			return data.Null, err
		}
		return castValue(v, ex.Kind), nil
	}
	return data.Null, fmt.Errorf("sql: cannot evaluate %T", x)
}
