package sqlmini

import (
	"fmt"
	"strconv"
	"strings"

	"v2v/internal/rational"
	"v2v/internal/vql"
)

// selectStmt is the parsed form of a SELECT statement.
type selectStmt struct {
	star    bool
	cols    []string
	table   string
	where   expr
	orderBy string
	desc    bool
	limit   int // -1 = no limit
}

// --- lexer ---

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber // integer, decimal, or num/den rational, optionally negative
	tokString
	tokOp // = != < <= > >= ( ) , *
	tokKeyword
)

type token struct {
	kind tokKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "ORDER": true, "BY": true,
	"ASC": true, "DESC": true, "LIMIT": true, "AND": true, "OR": true,
	"NOT": true, "TRUE": true, "FALSE": true, "NULL": true, "IS": true,
}

func lex(sql string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';':
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(sql) {
					return nil, fmt.Errorf("sqlmini: unterminated string at %d", i)
				}
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(sql[j])
				j++
			}
			toks = append(toks, token{tokString, sb.String(), i})
			i = j + 1
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(sql) && sql[i+1] >= '0' && sql[i+1] <= '9':
			j := i + 1
			for j < len(sql) && (sql[j] >= '0' && sql[j] <= '9' || sql[j] == '.') {
				j++
			}
			// num/den rational literal: digits '/' digits.
			if j < len(sql) && sql[j] == '/' && j+1 < len(sql) && sql[j+1] >= '0' && sql[j+1] <= '9' {
				j++
				for j < len(sql) && sql[j] >= '0' && sql[j] <= '9' {
					j++
				}
			}
			toks = append(toks, token{tokNumber, sql[i:j], i})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(sql) && isIdentPart(sql[j]) {
				j++
			}
			word := sql[i:j]
			if keywords[strings.ToUpper(word)] {
				toks = append(toks, token{tokKeyword, strings.ToUpper(word), i})
			} else {
				toks = append(toks, token{tokIdent, word, i})
			}
			i = j
		case c == '!' || c == '<' || c == '>':
			if i+1 < len(sql) && sql[i+1] == '=' {
				toks = append(toks, token{tokOp, sql[i : i+2], i})
				i += 2
			} else if c == '!' {
				return nil, fmt.Errorf("sqlmini: stray '!' at %d", i)
			} else {
				toks = append(toks, token{tokOp, string(c), i})
				i++
			}
		case c == '=' || c == '(' || c == ')' || c == ',' || c == '*':
			toks = append(toks, token{tokOp, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("sqlmini: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(sql)})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("sqlmini: expected %s at %d, got %q", kw, t.pos, t.text)
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.kind == tokOp && t.text == op {
		p.pos++
		return true
	}
	return false
}

func parseSelect(sql string) (*selectStmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &selectStmt{limit: -1}
	if p.acceptOp("*") {
		s.star = true
	} else {
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("sqlmini: expected column name at %d, got %q", t.pos, t.text)
			}
			s.cols = append(s.cols, t.text)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlmini: expected table name at %d, got %q", t.pos, t.text)
	}
	s.table = t.text

	if p.acceptKeyword("WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		s.where = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("sqlmini: expected column after ORDER BY at %d", t.pos)
		}
		s.orderBy = t.text
		if p.acceptKeyword("DESC") {
			s.desc = true
		} else {
			p.acceptKeyword("ASC")
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sqlmini: expected number after LIMIT at %d", t.pos)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sqlmini: bad LIMIT %q", t.text)
		}
		s.limit = n
	}
	if t := p.next(); t.kind != tokEOF {
		return nil, fmt.Errorf("sqlmini: trailing input at %d: %q", t.pos, t.text)
	}
	return s, nil
}

// --- expression AST and evaluation ---

// expr evaluates to a value against a row of a table.
type expr interface {
	eval(t *Table, row []vql.Val) (vql.Val, error)
}

type binExpr struct {
	op   string // AND OR = != < <= > >=
	l, r expr
}

type notExpr struct{ e expr }

type isNullExpr struct {
	e   expr
	neg bool
}

type colExpr struct{ name string }

type litExpr struct{ v vql.Val }

func (e *colExpr) eval(t *Table, row []vql.Val) (vql.Val, error) {
	i, ok := t.colIndex(e.name)
	if !ok {
		return vql.Val{}, fmt.Errorf("sqlmini: no column %q in %q", e.name, t.Name)
	}
	return row[i], nil
}

func (e *litExpr) eval(*Table, []vql.Val) (vql.Val, error) { return e.v, nil }

func (e *notExpr) eval(t *Table, row []vql.Val) (vql.Val, error) {
	v, err := e.e.eval(t, row)
	if err != nil {
		return vql.Val{}, err
	}
	return vql.BoolV(!v.Truthy()), nil
}

func (e *isNullExpr) eval(t *Table, row []vql.Val) (vql.Val, error) {
	v, err := e.e.eval(t, row)
	if err != nil {
		return vql.Val{}, err
	}
	return vql.BoolV((v.Type == vql.TypeNull) != e.neg), nil
}

func (e *binExpr) eval(t *Table, row []vql.Val) (vql.Val, error) {
	l, err := e.l.eval(t, row)
	if err != nil {
		return vql.Val{}, err
	}
	switch e.op {
	case "AND":
		if !l.Truthy() {
			return vql.BoolV(false), nil
		}
		r, err := e.r.eval(t, row)
		if err != nil {
			return vql.Val{}, err
		}
		return vql.BoolV(r.Truthy()), nil
	case "OR":
		if l.Truthy() {
			return vql.BoolV(true), nil
		}
		r, err := e.r.eval(t, row)
		if err != nil {
			return vql.Val{}, err
		}
		return vql.BoolV(r.Truthy()), nil
	}
	r, err := e.r.eval(t, row)
	if err != nil {
		return vql.Val{}, err
	}
	cmp, err := compare(l, r)
	if err != nil {
		return vql.Val{}, err
	}
	switch e.op {
	case "=":
		return vql.BoolV(cmp == 0), nil
	case "!=":
		return vql.BoolV(cmp != 0), nil
	case "<":
		return vql.BoolV(cmp < 0), nil
	case "<=":
		return vql.BoolV(cmp <= 0), nil
	case ">":
		return vql.BoolV(cmp > 0), nil
	case ">=":
		return vql.BoolV(cmp >= 0), nil
	}
	return vql.Val{}, fmt.Errorf("sqlmini: unknown operator %q", e.op)
}

func (p *parser) parseOr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: "OR", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: "AND", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &notExpr{e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &isNullExpr{e: l, neg: neg}, nil
	}
	for _, op := range []string{"<=", ">=", "!=", "=", "<", ">"} {
		if p.acceptOp(op) {
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &binExpr{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.next()
	switch {
	case t.kind == tokOp && t.text == "(":
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.acceptOp(")") {
			return nil, fmt.Errorf("sqlmini: missing ')' at %d", p.peek().pos)
		}
		return e, nil
	case t.kind == tokIdent:
		return &colExpr{name: t.text}, nil
	case t.kind == tokString:
		return &litExpr{vql.StrV(t.text)}, nil
	case t.kind == tokNumber:
		r, err := rational.Parse(t.text)
		if err != nil {
			return nil, fmt.Errorf("sqlmini: bad number %q: %w", t.text, err)
		}
		return &litExpr{vql.NumV(r)}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		return &litExpr{vql.BoolV(true)}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		return &litExpr{vql.BoolV(false)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		return &litExpr{vql.NullV()}, nil
	default:
		return nil, fmt.Errorf("sqlmini: unexpected token %q at %d", t.text, t.pos)
	}
}
