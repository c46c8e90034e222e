package pylite

import (
	"fmt"
	"strconv"

	"qfusor/internal/data"
)

// Parse parses PyLite source into a Module.
func Parse(src string) (*Module, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	mod := &Module{}
	for !p.at(tokEOF) {
		if p.atNewline() {
			p.next()
			continue
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		mod.Body = append(mod.Body, st...)
	}
	return mod, nil
}

// ParseExpr parses a single expression (used by the engine to lift SQL
// expressions into the UDF environment).
func ParseExpr(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExprList()
	if err != nil {
		return nil, err
	}
	if !p.atNewline() && !p.at(tokEOF) {
		return nil, p.errf("unexpected trailing tokens after expression")
	}
	return e, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokKind) bool { return p.cur().Kind == kind }
func (p *parser) atNewline() bool      { return p.cur().Kind == tokNewline }

func (p *parser) atOp(op string) bool {
	t := p.cur()
	return t.Kind == tokOp && t.Text == op
}

func (p *parser) atKw(kw string) bool {
	t := p.cur()
	return t.Kind == tokKeyword && t.Text == kw
}

func (p *parser) acceptOp(op string) bool {
	if p.atOp(op) {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptKw(kw string) bool {
	if p.atKw(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, got %s", op, p.cur())
	}
	return nil
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected keyword %q, got %s", kw, p.cur())
	}
	return nil
}

func (p *parser) expectName() (string, error) {
	if !p.at(tokName) {
		return "", p.errf("expected name, got %s", p.cur())
	}
	return p.next().Text, nil
}

// parseNames parses a comma-separated list of one or more names.
func (p *parser) parseNames() ([]string, error) {
	var names []string
	for {
		n, err := p.expectName()
		if err != nil {
			return nil, err
		}
		names = append(names, n)
		if !p.acceptOp(",") {
			return names, nil
		}
	}
}

func (p *parser) expectNewline() error {
	if p.at(tokEOF) {
		return nil
	}
	if !p.atNewline() {
		return p.errf("expected end of line, got %s", p.cur())
	}
	p.next()
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("pylite: line %d: %s", p.cur().Line, fmt.Sprintf(format, args...))
}

func (p *parser) mkpos() pos { return pos{Line: p.cur().Line} }

// parseStmt parses one logical line, which may contain several simple
// statements separated by ';', or one compound statement.
func (p *parser) parseStmt() ([]Stmt, error) {
	t := p.cur()
	if t.Kind == tokOp && t.Text == "@" {
		return p.parseDecorated()
	}
	if t.Kind == tokKeyword {
		switch t.Text {
		case "def":
			st, err := p.parseFuncDef(nil)
			if err != nil {
				return nil, err
			}
			return []Stmt{st}, nil
		case "class":
			st, err := p.parseClassDef(nil)
			if err != nil {
				return nil, err
			}
			return []Stmt{st}, nil
		case "if":
			st, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			return []Stmt{st}, nil
		case "while":
			st, err := p.parseWhile()
			if err != nil {
				return nil, err
			}
			return []Stmt{st}, nil
		case "for":
			st, err := p.parseFor()
			if err != nil {
				return nil, err
			}
			return []Stmt{st}, nil
		case "try":
			st, err := p.parseTry()
			if err != nil {
				return nil, err
			}
			return []Stmt{st}, nil
		}
	}
	// Simple statement(s).
	var out []Stmt
	for {
		st, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if p.acceptOp(";") {
			if p.atNewline() || p.at(tokEOF) {
				break
			}
			continue
		}
		break
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseDecorated() ([]Stmt, error) {
	var decorators []string
	for p.atOp("@") {
		p.next()
		name, err := p.expectName()
		if err != nil {
			return nil, err
		}
		// Allow dotted or called decorators; record base name only.
		for p.acceptOp(".") {
			sub, err := p.expectName()
			if err != nil {
				return nil, err
			}
			name = name + "." + sub
		}
		if p.acceptOp("(") {
			depth := 1
			for depth > 0 {
				t := p.next()
				if t.Kind == tokEOF {
					return nil, p.errf("unterminated decorator arguments")
				}
				if t.Kind == tokOp {
					switch t.Text {
					case "(":
						depth++
					case ")":
						depth--
					}
				}
			}
		}
		decorators = append(decorators, name)
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
	}
	switch {
	case p.atKw("def"):
		st, err := p.parseFuncDef(decorators)
		if err != nil {
			return nil, err
		}
		return []Stmt{st}, nil
	case p.atKw("class"):
		st, err := p.parseClassDef(decorators)
		if err != nil {
			return nil, err
		}
		return []Stmt{st}, nil
	}
	return nil, p.errf("decorator must precede def or class")
}

func (p *parser) parseSimpleStmt() (Stmt, error) {
	ps := p.mkpos()
	t := p.cur()
	if t.Kind == tokKeyword {
		switch t.Text {
		case "return":
			p.next()
			var val Expr
			if !p.atNewline() && !p.at(tokEOF) && !p.atOp(";") {
				e, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				val = e
			}
			return &Return{pos: ps, Value: val}, nil
		case "pass":
			p.next()
			return &Pass{pos: ps}, nil
		case "break":
			p.next()
			return &Break{pos: ps}, nil
		case "continue":
			p.next()
			return &Continue{pos: ps}, nil
		case "import":
			p.next()
			names, err := p.parseNames()
			if err != nil {
				return nil, err
			}
			return &Import{pos: ps, Names: names}, nil
		case "from":
			p.next()
			mod, err := p.expectName()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("import"); err != nil {
				return nil, err
			}
			names, err := p.parseNames()
			if err != nil {
				return nil, err
			}
			return &Import{pos: ps, From: mod, Names: names}, nil
		case "del":
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &Del{pos: ps, Target: e}, nil
		case "global":
			p.next()
			names, err := p.parseNames()
			if err != nil {
				return nil, err
			}
			return &Global{pos: ps, Names: names}, nil
		case "raise":
			p.next()
			var val Expr
			if !p.atNewline() && !p.at(tokEOF) {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				val = e
			}
			return &Raise{pos: ps, Value: val}, nil
		case "assert":
			p.next()
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			var msg Expr
			if p.acceptOp(",") {
				msg, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			return &Assert{pos: ps, Cond: cond, Msg: msg}, nil
		case "yield":
			p.next()
			var val Expr
			if !p.atNewline() && !p.at(tokEOF) && !p.atOp(";") {
				e, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				val = e
			}
			return &ExprStmt{pos: ps, Value: &Yield{pos: ps, Value: val}}, nil
		}
	}
	// Expression / assignment.
	first, err := p.parseExprList()
	if err != nil {
		return nil, err
	}
	for _, aug := range []string{"+=", "-=", "*=", "/=", "//=", "%=", "**="} {
		if p.atOp(aug) {
			p.next()
			val, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			return &AugAssign{pos: ps, Target: first, Op: aug[:len(aug)-1], Value: val}, nil
		}
	}
	if p.atOp("=") {
		targets := []Expr{first}
		var value Expr
		for p.acceptOp("=") {
			e, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			value = e
			if p.atOp("=") {
				targets = append(targets, e)
			}
		}
		return &Assign{pos: ps, Targets: targets, Value: value}, nil
	}
	return &ExprStmt{pos: ps, Value: first}, nil
}

// parseBlock parses `: NEWLINE INDENT stmts DEDENT` or `: simple_stmt`.
func (p *parser) parseBlock() ([]Stmt, error) {
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	if !p.atNewline() {
		// Inline suite: `if x: return 1`
		var out []Stmt
		for {
			st, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			out = append(out, st)
			if !p.acceptOp(";") {
				break
			}
			if p.atNewline() || p.at(tokEOF) {
				break
			}
		}
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
		return out, nil
	}
	p.next() // newline
	if !p.at(tokIndent) {
		return nil, p.errf("expected an indented block")
	}
	p.next()
	var out []Stmt
	for !p.at(tokDedent) && !p.at(tokEOF) {
		if p.atNewline() {
			p.next()
			continue
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, st...)
	}
	if p.at(tokDedent) {
		p.next()
	}
	return out, nil
}

func (p *parser) parseFuncDef(decorators []string) (Stmt, error) {
	ps := p.mkpos()
	p.next() // def
	name, err := p.expectName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	params, vararg, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	returns := ""
	if p.acceptOp("->") {
		// Annotation: a name possibly with [...] suffix; capture as text.
		n, err := p.expectName()
		if err != nil {
			return nil, err
		}
		returns = n
		if p.acceptOp("[") {
			depth := 1
			for depth > 0 {
				t := p.next()
				if t.Kind == tokEOF {
					return nil, p.errf("unterminated annotation")
				}
				if t.Kind == tokOp {
					switch t.Text {
					case "[":
						depth++
					case "]":
						depth--
					}
				}
			}
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fd := &FuncDef{pos: ps, Name: name, Params: params, Vararg: vararg,
		Body: body, Decorators: decorators, Returns: returns}
	fd.IsGen = containsYield(body)
	return fd, nil
}

func (p *parser) parseParams() ([]Param, string, error) {
	var params []Param
	vararg := ""
	for !p.atOp(")") {
		if p.acceptOp("*") {
			n, err := p.expectName()
			if err != nil {
				return nil, "", err
			}
			vararg = n
		} else {
			n, err := p.expectName()
			if err != nil {
				return nil, "", err
			}
			prm := Param{Name: n}
			if p.acceptOp(":") {
				ann, err := p.expectName()
				if err != nil {
					return nil, "", err
				}
				prm.Annotation = ann
			}
			if p.acceptOp("=") {
				d, err := p.parseExpr()
				if err != nil {
					return nil, "", err
				}
				prm.Default = d
			}
			params = append(params, prm)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, "", err
	}
	return params, vararg, nil
}

func (p *parser) parseClassDef(decorators []string) (Stmt, error) {
	ps := p.mkpos()
	p.next() // class
	name, err := p.expectName()
	if err != nil {
		return nil, err
	}
	if p.acceptOp("(") { // base classes ignored
		for !p.atOp(")") {
			p.next()
		}
		p.next()
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ClassDef{pos: ps, Name: name, Body: body, Decorators: decorators}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	ps := p.mkpos()
	p.next() // if / elif
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &If{pos: ps, Cond: cond, Body: body}
	if p.atKw("elif") {
		sub, err := p.parseIf()
		if err != nil {
			return nil, err
		}
		node.Else = []Stmt{sub}
	} else if p.acceptKw("else") {
		els, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	return node, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	ps := p.mkpos()
	p.next()
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &While{pos: ps, Cond: cond, Body: body}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	ps := p.mkpos()
	p.next()
	target, err := p.parseTargetList()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("in"); err != nil {
		return nil, err
	}
	iter, err := p.parseExprList()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &For{pos: ps, Target: target, Iter: iter, Body: body}, nil
}

func (p *parser) parseTry() (Stmt, error) {
	ps := p.mkpos()
	p.next()
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &Try{pos: ps, Body: body}
	if p.acceptKw("except") {
		if p.at(tokName) {
			node.ExcType = p.next().Text
			if p.at(tokName) && p.cur().Text == "as" {
				p.next()
				n, err := p.expectName()
				if err != nil {
					return nil, err
				}
				node.ExcName = n
			}
		}
		exc, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		node.Except = exc
	}
	if p.acceptKw("finally") {
		fin, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		node.Finally = fin
	}
	if node.Except == nil && node.Finally == nil {
		return nil, p.errf("try without except or finally")
	}
	return node, nil
}

// parseTargetList parses a for-loop target: name or comma list of names.
func (p *parser) parseTargetList() (Expr, error) {
	first, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if !p.atOp(",") {
		return first, nil
	}
	items := []Expr{first}
	for p.acceptOp(",") {
		if p.atKw("in") {
			break
		}
		e, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &TupleLit{pos: pos{Line: first.nodeLine()}, Items: items}, nil
}

// parseExprList parses `expr (, expr)*`, producing a TupleLit when more
// than one element is present.
func (p *parser) parseExprList() (Expr, error) {
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atOp(",") {
		return first, nil
	}
	items := []Expr{first}
	for p.acceptOp(",") {
		if p.atNewline() || p.at(tokEOF) || p.atOp("=") || p.atOp(")") || p.atOp("]") || p.atOp("}") || p.atOp(":") || p.atOp(";") {
			break
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &TupleLit{pos: pos{Line: first.nodeLine()}, Items: items}, nil
}

// parseExpr parses a single expression (no top-level commas).
func (p *parser) parseExpr() (Expr, error) {
	if p.atKw("lambda") {
		return p.parseLambda()
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.atKw("if") {
		ps := p.mkpos()
		p.next()
		cond, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("else"); err != nil {
			return nil, err
		}
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &IfExp{pos: ps, Cond: cond, Then: e, Else: els}, nil
	}
	return e, nil
}

func (p *parser) parseLambda() (Expr, error) {
	ps := p.mkpos()
	p.next() // lambda
	var params []Param
	for !p.atOp(":") {
		n, err := p.expectName()
		if err != nil {
			return nil, err
		}
		prm := Param{Name: n}
		if p.acceptOp("=") {
			d, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			prm.Default = d
		}
		params = append(params, prm)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Lambda{pos: ps, Params: params, Body: body}, nil
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKw("or") {
		ps := p.mkpos()
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BoolOp{pos: ps, Op: "or", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKw("and") {
		ps := p.mkpos()
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BoolOp{pos: ps, Op: "and", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atKw("not") {
		ps := p.mkpos()
		p.next()
		operand, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{pos: ps, Op: "not", Operand: operand}, nil
	}
	return p.parseComparison()
}

var compareOps = map[string]bool{
	"<": true, "<=": true, ">": true, ">=": true, "==": true, "!=": true,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseBitOr()
	if err != nil {
		return nil, err
	}
	var ops []string
	var comps []Expr
	for {
		var op string
		switch {
		case p.cur().Kind == tokOp && compareOps[p.cur().Text]:
			op = p.next().Text
		case p.atKw("in"):
			p.next()
			op = "in"
		case p.atKw("not") && p.toks[p.pos+1].Kind == tokKeyword && p.toks[p.pos+1].Text == "in":
			p.next()
			p.next()
			op = "not in"
		case p.atKw("is"):
			p.next()
			op = "is"
			if p.atKw("not") {
				p.next()
				op = "is not"
			}
		default:
			if ops == nil {
				return left, nil
			}
			return &Compare{pos: pos{Line: left.nodeLine()}, Left: left, Ops: ops, Comps: comps}, nil
		}
		right, err := p.parseBitOr()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		comps = append(comps, right)
	}
}

func (p *parser) parseBitOr() (Expr, error) {
	return p.parseBinary([]string{"|"}, func() (Expr, error) {
		return p.parseBinary([]string{"^"}, func() (Expr, error) {
			return p.parseBinary([]string{"&"}, p.parseAdd)
		})
	})
}

func (p *parser) parseAdd() (Expr, error) {
	return p.parseBinary([]string{"+", "-"}, p.parseMul)
}

func (p *parser) parseMul() (Expr, error) {
	return p.parseBinary([]string{"*", "/", "//", "%"}, p.parseUnary)
}

func (p *parser) parseBinary(ops []string, sub func() (Expr, error)) (Expr, error) {
	left, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		matched := ""
		for _, op := range ops {
			if p.atOp(op) {
				matched = op
				break
			}
		}
		if matched == "" {
			return left, nil
		}
		ps := p.mkpos()
		p.next()
		right, err := sub()
		if err != nil {
			return nil, err
		}
		left = &BinOp{pos: ps, Op: matched, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.atOp("-") || p.atOp("+") || p.atOp("~") {
		ps := p.mkpos()
		op := p.next().Text
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{pos: ps, Op: op, Operand: operand}, nil
	}
	return p.parsePower()
}

func (p *parser) parsePower() (Expr, error) {
	base, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if p.atOp("**") {
		ps := p.mkpos()
		p.next()
		exp, err := p.parseUnary() // right-associative
		if err != nil {
			return nil, err
		}
		return &BinOp{pos: ps, Op: "**", Left: base, Right: exp}, nil
	}
	return base, nil
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atOp("("):
			ps := p.mkpos()
			p.next()
			call := &Call{pos: ps, Fn: e}
			for !p.atOp(")") {
				if p.acceptOp("*") {
					star, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.StarArg = star
				} else if p.at(tokName) && p.toks[p.pos+1].Kind == tokOp && p.toks[p.pos+1].Text == "=" {
					kw := p.next().Text
					p.next() // =
					val, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.KwNames = append(call.KwNames, kw)
					call.KwVals = append(call.KwVals, val)
				} else {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
				}
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			e = call
		case p.atOp("."):
			ps := p.mkpos()
			p.next()
			n, err := p.expectName()
			if err != nil {
				return nil, err
			}
			e = &Attr{pos: ps, Obj: e, Name: n}
		case p.atOp("["):
			ps := p.mkpos()
			p.next()
			var lo, hi, step Expr
			isSlice := false
			if !p.atOp(":") {
				x, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				lo = x
			} else {
				isSlice = true
			}
			if p.acceptOp(":") {
				isSlice = true
				if !p.atOp("]") && !p.atOp(":") {
					x, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					hi = x
				}
				if p.acceptOp(":") {
					if !p.atOp("]") {
						x, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						step = x
					}
				}
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			if isSlice {
				e = &SliceExpr{pos: ps, Obj: e, Lo: lo, Hi: hi, Step: step}
			} else {
				e = &Index{pos: ps, Obj: e, Key: lo}
			}
		default:
			return e, nil
		}
	}
}

func (p *parser) parseAtom() (Expr, error) {
	ps := p.mkpos()
	t := p.cur()
	switch t.Kind {
	case tokInt:
		p.next()
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", t.Text)
		}
		return &Const{pos: ps, Value: data.Int(i)}, nil
	case tokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad float literal %q", t.Text)
		}
		return &Const{pos: ps, Value: data.Float(f)}, nil
	case tokString:
		p.next()
		s := t.Text
		// Adjacent string literal concatenation.
		for p.at(tokString) {
			s += p.next().Text
		}
		return &Const{pos: ps, Value: data.Str(s)}, nil
	case tokName:
		p.next()
		return &Name{pos: ps, ID: t.Text, Slot: -2}, nil
	case tokKeyword:
		switch t.Text {
		case "None":
			p.next()
			return &Const{pos: ps, Value: data.Null}, nil
		case "True":
			p.next()
			return &Const{pos: ps, Value: data.Bool(true)}, nil
		case "False":
			p.next()
			return &Const{pos: ps, Value: data.Bool(false)}, nil
		case "lambda":
			return p.parseLambda()
		case "yield":
			p.next()
			var val Expr
			if !p.atOp(")") && !p.atNewline() {
				e, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				val = e
			}
			return &Yield{pos: ps, Value: val}, nil
		}
	case tokOp:
		switch t.Text {
		case "(":
			p.next()
			if p.acceptOp(")") {
				return &TupleLit{pos: ps}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.atKw("for") {
				comp, err := p.parseCompClauses()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &Comp{pos: ps, Kind: 'g', Elt: e, Fors: comp}, nil
			}
			if p.atOp(",") {
				items := []Expr{e}
				for p.acceptOp(",") {
					if p.atOp(")") {
						break
					}
					x, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					items = append(items, x)
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &TupleLit{pos: ps, Items: items}, nil
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "[":
			p.next()
			if p.acceptOp("]") {
				return &ListLit{pos: ps}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.atKw("for") {
				comp, err := p.parseCompClauses()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp("]"); err != nil {
					return nil, err
				}
				return &Comp{pos: ps, Kind: 'l', Elt: e, Fors: comp}, nil
			}
			items := []Expr{e}
			for p.acceptOp(",") {
				if p.atOp("]") {
					break
				}
				x, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				items = append(items, x)
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			return &ListLit{pos: ps, Items: items}, nil
		case "{":
			p.next()
			if p.acceptOp("}") {
				return &DictLit{pos: ps}, nil
			}
			k, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.atOp(":") { // dict
				p.next()
				v, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				d := &DictLit{pos: ps, Keys: []Expr{k}, Vals: []Expr{v}}
				for p.acceptOp(",") {
					if p.atOp("}") {
						break
					}
					k2, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					if err := p.expectOp(":"); err != nil {
						return nil, err
					}
					v2, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					d.Keys = append(d.Keys, k2)
					d.Vals = append(d.Vals, v2)
				}
				if err := p.expectOp("}"); err != nil {
					return nil, err
				}
				return d, nil
			}
			if p.atKw("for") {
				comp, err := p.parseCompClauses()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp("}"); err != nil {
					return nil, err
				}
				return &Comp{pos: ps, Kind: 's', Elt: k, Fors: comp}, nil
			}
			set := &SetLit{pos: ps, Items: []Expr{k}}
			for p.acceptOp(",") {
				if p.atOp("}") {
					break
				}
				x, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				set.Items = append(set.Items, x)
			}
			if err := p.expectOp("}"); err != nil {
				return nil, err
			}
			return set, nil
		}
	}
	return nil, p.errf("unexpected token %s", t)
}

func (p *parser) parseCompClauses() ([]CompFor, error) {
	var fors []CompFor
	for p.acceptKw("for") {
		target, err := p.parseTargetList()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("in"); err != nil {
			return nil, err
		}
		iter, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		cf := CompFor{Target: target, Iter: iter}
		for p.acceptKw("if") {
			cond, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			cf.Ifs = append(cf.Ifs, cond)
		}
		fors = append(fors, cf)
	}
	return fors, nil
}

// containsYield walks a statement list (without descending into nested
// function definitions) looking for yield expressions.
func containsYield(body []Stmt) bool {
	for _, st := range body {
		if stmtHasYield(st) {
			return true
		}
	}
	return false
}

func stmtHasYield(st Stmt) bool {
	switch s := st.(type) {
	case *ExprStmt:
		return exprHasYield(s.Value)
	case *Assign:
		return exprHasYield(s.Value)
	case *AugAssign:
		return exprHasYield(s.Value)
	case *Return:
		return s.Value != nil && exprHasYield(s.Value)
	case *If:
		return containsYield(s.Body) || containsYield(s.Else)
	case *While:
		return containsYield(s.Body)
	case *For:
		return containsYield(s.Body)
	case *Try:
		return containsYield(s.Body) || containsYield(s.Except) || containsYield(s.Finally)
	}
	return false
}

func exprHasYield(e Expr) bool {
	switch x := e.(type) {
	case *Yield:
		return true
	case *BinOp:
		return exprHasYield(x.Left) || exprHasYield(x.Right)
	case *BoolOp:
		return exprHasYield(x.Left) || exprHasYield(x.Right)
	case *UnaryOp:
		return exprHasYield(x.Operand)
	case *Call:
		for _, a := range x.Args {
			if exprHasYield(a) {
				return true
			}
		}
		return false
	case *IfExp:
		return exprHasYield(x.Cond) || exprHasYield(x.Then) || exprHasYield(x.Else)
	case *TupleLit:
		for _, it := range x.Items {
			if exprHasYield(it) {
				return true
			}
		}
	}
	return false
}
