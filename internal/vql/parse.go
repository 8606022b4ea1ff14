package vql

import (
	"errors"
	"fmt"

	"v2v/internal/rational"
)

// Parse parses the textual spec grammar:
//
//	timedomain range(0, 600, 1/30);
//	videos { vid1: "video1.vmf"; vid2: "video2.vmf"; }
//	data   { vid1_bb: "annot1.json"; }
//	sql    { counts: "SELECT ts, n FROM t"; }
//	output { width: 1280; height: 720; fps: 30; }   // optional
//	render(t) = match t {
//	    t in range(0, 300, 1/30) => vid1[t],
//	    t in {0, 1, 2}           => zoom(vid2[t], 2),
//	};
//
// Expressions support exact rational arithmetic (integer division folds to
// a rational constant, so 13463/30 is a number), comparisons, and/or/not,
// if-then-else (sugar for ifthenelse), transform calls, and time-indexing
// of videos and data arrays. Video vs. data references are resolved against
// the declaration sections.
func Parse(src string) (*Spec, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &specParser{toks: toks}
	spec, err := p.parseSpec()
	if err != nil {
		return nil, err
	}
	if err := spec.ResolveRefs(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ParseAny parses a spec in either format: the JSON format when the first
// non-whitespace byte is '{', the textual grammar otherwise. Input with no
// non-whitespace byte is an error.
func ParseAny(raw []byte) (*Spec, error) {
	for _, b := range raw {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return UnmarshalSpecJSON(raw)
		default:
			return Parse(string(raw))
		}
	}
	return nil, errors.New("vql: empty spec")
}

// ParseExpr parses a single expression (used by tests and UDF tooling).
// References are not resolved (all indexing parses as VideoRef).
func ParseExpr(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &specParser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if t := p.next(); t.kind != tEOF {
		return nil, fmt.Errorf("vql: trailing input at %d:%d: %s", t.line, t.col, t)
	}
	return e, nil
}

type specParser struct {
	toks  []tok
	pos   int
	depth int
}

// maxParseDepth bounds expression nesting so adversarial input (deeply
// nested parens, long `not not ...` chains) fails with a parse error
// instead of exhausting the goroutine stack.
const maxParseDepth = 200

func (p *specParser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return fmt.Errorf("vql: expression nesting exceeds %d levels", maxParseDepth)
	}
	return nil
}

func (p *specParser) leave() { p.depth-- }

func (p *specParser) peek() tok { return p.toks[p.pos] }

func (p *specParser) next() tok {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *specParser) errAt(t tok, format string, args ...any) error {
	return fmt.Errorf("vql:%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *specParser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tPunct || t.text != s {
		return p.errAt(t, "expected %q, got %s", s, t)
	}
	return nil
}

func (p *specParser) acceptPunct(s string) bool {
	if t := p.peek(); t.kind == tPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *specParser) acceptIdent(s string) bool {
	if t := p.peek(); t.kind == tIdent && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *specParser) parseSpec() (*Spec, error) {
	spec := &Spec{
		Videos:    map[string]string{},
		DataFiles: map[string]string{},
		DataSQL:   map[string]string{},
	}
	var haveDomain, haveRender bool
	for {
		t := p.peek()
		if t.kind == tEOF {
			break
		}
		if t.kind != tIdent {
			return nil, p.errAt(t, "expected a section keyword, got %s", t)
		}
		switch t.text {
		case "timedomain":
			p.next()
			p.acceptPunct(":")
			r, err := p.parseRangeLiteral()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			spec.TimeDomain = r
			haveDomain = true
		case "videos":
			p.next()
			if err := p.parseBindings(spec.Videos); err != nil {
				return nil, err
			}
		case "data":
			p.next()
			if err := p.parseBindings(spec.DataFiles); err != nil {
				return nil, err
			}
		case "sql":
			p.next()
			if err := p.parseBindings(spec.DataSQL); err != nil {
				return nil, err
			}
		case "output":
			p.next()
			of, err := p.parseOutput()
			if err != nil {
				return nil, err
			}
			spec.Output = of
		case "render":
			p.next()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			tv := p.next()
			if tv.kind != tIdent || tv.text != "t" {
				return nil, p.errAt(tv, "render parameter must be t")
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			spec.Render = e
			haveRender = true
		default:
			return nil, p.errAt(t, "unknown section %q", t.text)
		}
	}
	if !haveDomain {
		return nil, fmt.Errorf("vql: spec is missing a timedomain")
	}
	if !haveRender {
		return nil, fmt.Errorf("vql: spec is missing a render function")
	}
	return spec, nil
}

// parseBindings parses `{ name: "value"; ... }` into dst.
func (p *specParser) parseBindings(dst map[string]string) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.acceptPunct("}") {
		name := p.next()
		if name.kind != tIdent {
			return p.errAt(name, "expected a name, got %s", name)
		}
		if dslKeywords[name.text] || name.text == "t" {
			return p.errAt(name, "%q is reserved", name.text)
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		val := p.next()
		if val.kind != tString {
			return p.errAt(val, "expected a string, got %s", val)
		}
		if _, dup := dst[name.text]; dup {
			return p.errAt(name, "duplicate binding %q", name.text)
		}
		dst[name.text] = val.text
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return nil
}

func (p *specParser) parseOutput() (*OutputFormat, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	of := &OutputFormat{}
	for !p.acceptPunct("}") {
		key := p.next()
		if key.kind != tIdent {
			return nil, p.errAt(key, "expected an output field, got %s", key)
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		v, err := p.parseConstNum()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		switch key.text {
		case "width":
			of.Width = int(v.Floor())
		case "height":
			of.Height = int(v.Floor())
		case "fps":
			of.FPS = v
		case "quality":
			of.Quality = int(v.Floor())
		case "gop":
			of.GOP = int(v.Floor())
		default:
			return nil, p.errAt(key, "unknown output field %q", key.text)
		}
	}
	return of, nil
}

// parseRangeLiteral parses range(a, b, step) with constant bounds.
func (p *specParser) parseRangeLiteral() (rational.Range, error) {
	kw := p.next()
	if kw.kind != tIdent || kw.text != "range" {
		return rational.Range{}, p.errAt(kw, "expected range(...), got %s", kw)
	}
	if err := p.expectPunct("("); err != nil {
		return rational.Range{}, err
	}
	start, err := p.parseConstNum()
	if err != nil {
		return rational.Range{}, err
	}
	if err := p.expectPunct(","); err != nil {
		return rational.Range{}, err
	}
	end, err := p.parseConstNum()
	if err != nil {
		return rational.Range{}, err
	}
	if err := p.expectPunct(","); err != nil {
		return rational.Range{}, err
	}
	step, err := p.parseConstNum()
	if err != nil {
		return rational.Range{}, err
	}
	if err := p.expectPunct(")"); err != nil {
		return rational.Range{}, err
	}
	if step.Sign() <= 0 {
		return rational.Range{}, p.errAt(kw, "range step must be positive, got %s", step)
	}
	return rational.NewRange(start, end, step), nil
}

// parseConstNum parses an expression and constant-folds it to a rational.
func (p *specParser) parseConstNum() (rational.Rat, error) {
	at := p.peek()
	e, err := p.parseExpr()
	if err != nil {
		return rational.Rat{}, err
	}
	v, err := constNum(e)
	if err != nil {
		return rational.Rat{}, p.errAt(at, "%v", err)
	}
	return v, nil
}

// constNum evaluates a constant numeric expression.
func constNum(e Expr) (rational.Rat, error) {
	if UsesTime(e) {
		return rational.Rat{}, fmt.Errorf("expression must be constant (no t)")
	}
	v, err := Eval(e, &Env{})
	if err != nil {
		return rational.Rat{}, err
	}
	if v.Type != TypeNum {
		return rational.Rat{}, fmt.Errorf("expected a number, got %v", v.Type)
	}
	return v.Num, nil
}

// --- expression grammar ---
// expr    := or
// or      := and ('or' and)*
// and     := cmp ('and' cmp)*
// cmp     := add (relop add)?
// add     := mul (('+'|'-') mul)*
// mul     := unary (('*'|'/') unary)*
// unary   := '-' unary | 'not' unary | postfix
// postfix := primary ('[' expr ']')*
// primary := number | string | true | false | null | t | ident
//          | ident '(' args ')' | '(' expr ')'
//          | 'if' expr 'then' expr 'else' expr | match

func (p *specParser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *specParser) parseOr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptIdent("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinOp{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *specParser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.acceptIdent("and") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = BinOp{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

var relOps = map[string]BinOpKind{
	"<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE, "==": OpEQ, "!=": OpNE,
}

func (p *specParser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tPunct {
		if op, ok := relOps[t.text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return BinOp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *specParser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = foldNum(BinOp{Op: OpAdd, L: l, R: r})
		case p.acceptPunct("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = foldNum(BinOp{Op: OpSub, L: l, R: r})
		default:
			return l, nil
		}
	}
}

func (p *specParser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = foldNum(BinOp{Op: OpMul, L: l, R: r})
		case p.acceptPunct("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = foldNum(BinOp{Op: OpDiv, L: l, R: r})
		default:
			return l, nil
		}
	}
}

// foldNum folds binary arithmetic over numeric literals so that 13463/30
// parses as one exact rational rather than a division operation.
func foldNum(b BinOp) Expr {
	l, lok := b.L.(NumLit)
	r, rok := b.R.(NumLit)
	if !lok || !rok {
		return b
	}
	switch b.Op {
	case OpAdd:
		return NumLit{l.V.Add(r.V)}
	case OpSub:
		return NumLit{l.V.Sub(r.V)}
	case OpMul:
		return NumLit{l.V.Mul(r.V)}
	case OpDiv:
		if r.V.Sign() == 0 {
			return b // evaluation will report the error with position-free context
		}
		return NumLit{l.V.Div(r.V)}
	}
	return b
}

func (p *specParser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.acceptPunct("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if n, ok := e.(NumLit); ok {
			return NumLit{n.V.Neg()}, nil
		}
		return Neg{E: e}, nil
	}
	if p.acceptIdent("not") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{E: e}, nil
	}
	return p.parsePostfix()
}

func (p *specParser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("[") {
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		ref, ok := e.(rawName)
		if !ok {
			return nil, fmt.Errorf("vql: only named videos/data can be indexed, not %s", e)
		}
		e = VideoRef{Name: ref.name, Index: idx} // resolved to DataRef later
	}
	if rn, ok := e.(rawName); ok {
		return nil, fmt.Errorf("vql: bare name %q must be indexed or called", rn.name)
	}
	return e, nil
}

// rawName is a transient parse node for an identifier awaiting indexing;
// it never survives parsing.
type rawName struct{ name string }

func (r rawName) String() string      { return r.name }
func (r rawName) EqualExpr(Expr) bool { return false }

func (p *specParser) parsePrimary() (Expr, error) {
	t := p.next()
	switch {
	case t.kind == tNumber:
		v, err := rational.Parse(t.text)
		if err != nil {
			return nil, p.errAt(t, "bad number: %v", err)
		}
		return NumLit{v}, nil
	case t.kind == tString:
		return StrLit{t.text}, nil
	case t.kind == tPunct && t.text == "(":
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tIdent:
		switch t.text {
		case "true":
			return BoolLit{true}, nil
		case "false":
			return BoolLit{false}, nil
		case "null":
			return NullLit{}, nil
		case "t":
			return TimeVar{}, nil
		case "if":
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ifTok := p.next()
			if ifTok.kind != tIdent || ifTok.text != "then" {
				return nil, p.errAt(ifTok, "expected then, got %s", ifTok)
			}
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			elTok := p.next()
			if elTok.kind != tIdent || elTok.text != "else" {
				return nil, p.errAt(elTok, "expected else, got %s", elTok)
			}
			b, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return Call{Name: "ifthenelse", Args: []Expr{cond, a, b}}, nil
		case "match":
			return p.parseMatch(t)
		case "range":
			return nil, p.errAt(t, "range(...) is only valid as a match guard or timedomain")
		default:
			if p.acceptPunct("(") {
				var args []Expr
				if !p.acceptPunct(")") {
					for {
						a, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						args = append(args, a)
						if p.acceptPunct(")") {
							break
						}
						if err := p.expectPunct(","); err != nil {
							return nil, err
						}
					}
				}
				return Call{Name: t.text, Args: args}, nil
			}
			return rawName{name: t.text}, nil
		}
	default:
		return nil, p.errAt(t, "unexpected %s", t)
	}
}

func (p *specParser) parseMatch(kw tok) (Expr, error) {
	tv := p.next()
	if tv.kind != tIdent || tv.text != "t" {
		return nil, p.errAt(tv, "match subject must be t")
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var arms []MatchArm
	for !p.acceptPunct("}") {
		// Optional "t in" prefix (paper syntax).
		if p.acceptIdent("t") {
			inTok := p.next()
			if inTok.kind != tIdent || inTok.text != "in" {
				return nil, p.errAt(inTok, "expected in, got %s", inTok)
			}
		}
		g, err := p.parseGuard()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("=>"); err != nil {
			return nil, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		arms = append(arms, MatchArm{Guard: g, Body: body})
		if !p.acceptPunct(",") {
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			break
		}
	}
	if len(arms) == 0 {
		return nil, p.errAt(kw, "match needs at least one arm")
	}
	return Match{Arms: arms}, nil
}

func (p *specParser) parseGuard() (Guard, error) {
	t := p.peek()
	if t.kind == tIdent && t.text == "range" {
		r, err := p.parseRangeLiteral()
		if err != nil {
			return Guard{}, err
		}
		return RangeGuard(r), nil
	}
	if t.kind == tPunct && t.text == "{" {
		p.next()
		var times []rational.Rat
		for !p.acceptPunct("}") {
			v, err := p.parseConstNum()
			if err != nil {
				return Guard{}, err
			}
			times = append(times, v)
			if !p.acceptPunct(",") {
				if err := p.expectPunct("}"); err != nil {
					return Guard{}, err
				}
				break
			}
		}
		return SetGuard(times), nil
	}
	return Guard{}, p.errAt(t, "expected range(...) or {times} guard, got %s", t)
}
