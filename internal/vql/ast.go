package vql

import (
	"fmt"
	"sort"
	"strings"

	"v2v/internal/rational"
)

// Expr is a node of the render expression AST. Expressions are immutable
// after construction; rewrites build new trees.
type Expr interface {
	// String renders the expression in DSL syntax.
	String() string
	// EqualExpr reports structural equality (used by the rewriter to
	// group times whose rewritten expressions coincide).
	EqualExpr(Expr) bool
}

// TimeVar is the render function's time parameter t.
type TimeVar struct{}

func (TimeVar) String() string { return "t" }

func (TimeVar) EqualExpr(o Expr) bool {
	_, ok := o.(TimeVar)
	return ok
}

// NumLit is an exact rational literal.
type NumLit struct{ V rational.Rat }

// String renders the literal. Non-integer rationals are parenthesized so
// that "x * (-209/21)" round-trips as a literal instead of reassociating
// to "(x * -209) / 21" under the parser's left-associative division.
func (e NumLit) String() string {
	if e.V.Den() == 1 {
		return e.V.String()
	}
	return "(" + e.V.String() + ")"
}

func (e NumLit) EqualExpr(o Expr) bool {
	n, ok := o.(NumLit)
	return ok && n.V.Equal(e.V)
}

// StrLit is a string literal.
type StrLit struct{ V string }

func (e StrLit) String() string { return quoteVQL(e.V) }

func (e StrLit) EqualExpr(o Expr) bool {
	s, ok := o.(StrLit)
	return ok && s.V == e.V
}

// BoolLit is a boolean literal.
type BoolLit struct{ V bool }

func (e BoolLit) String() string { return fmt.Sprintf("%t", e.V) }

func (e BoolLit) EqualExpr(o Expr) bool {
	b, ok := o.(BoolLit)
	return ok && b.V == e.V
}

// NullLit is the null literal.
type NullLit struct{}

func (NullLit) String() string { return "null" }

func (NullLit) EqualExpr(o Expr) bool {
	_, ok := o.(NullLit)
	return ok
}

// BinOpKind enumerates binary operators.
type BinOpKind uint8

const (
	OpAdd BinOpKind = iota
	OpSub
	OpMul
	OpDiv
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpAnd
	OpOr
)

var binOpNames = map[BinOpKind]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=",
	OpEQ: "==", OpNE: "!=", OpAnd: "and", OpOr: "or",
}

// BinOp is a binary operation over numbers or booleans.
type BinOp struct {
	Op   BinOpKind
	L, R Expr
}

func (e BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, binOpNames[e.Op], e.R)
}

func (e BinOp) EqualExpr(o Expr) bool {
	b, ok := o.(BinOp)
	return ok && b.Op == e.Op && e.L.EqualExpr(b.L) && e.R.EqualExpr(b.R)
}

// Not is boolean negation.
type Not struct{ E Expr }

func (e Not) String() string { return fmt.Sprintf("not %s", e.E) }

func (e Not) EqualExpr(o Expr) bool {
	n, ok := o.(Not)
	return ok && e.E.EqualExpr(n.E)
}

// Neg is numeric negation.
type Neg struct{ E Expr }

func (e Neg) String() string { return fmt.Sprintf("-%s", e.E) }

func (e Neg) EqualExpr(o Expr) bool {
	n, ok := o.(Neg)
	return ok && e.E.EqualExpr(n.E)
}

// VideoRef indexes a source video by time: name[Index].
type VideoRef struct {
	Name  string
	Index Expr
}

func (e VideoRef) String() string { return fmt.Sprintf("%s[%s]", e.Name, e.Index) }

func (e VideoRef) EqualExpr(o Expr) bool {
	v, ok := o.(VideoRef)
	return ok && v.Name == e.Name && e.Index.EqualExpr(v.Index)
}

// DataRef indexes a data array by time: name[Index]. The parser cannot
// distinguish video and data references syntactically; resolution happens
// against the spec's declarations (see Spec.ResolveRefs).
type DataRef struct {
	Name  string
	Index Expr
}

func (e DataRef) String() string { return fmt.Sprintf("%s[%s]", e.Name, e.Index) }

func (e DataRef) EqualExpr(o Expr) bool {
	d, ok := o.(DataRef)
	return ok && d.Name == e.Name && e.Index.EqualExpr(d.Index)
}

// Call applies a registered transform (or UDF) to arguments.
type Call struct {
	Name string
	Args []Expr
}

func (e Call) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(parts, ", "))
}

func (e Call) EqualExpr(o Expr) bool {
	c, ok := o.(Call)
	if !ok || c.Name != e.Name || len(c.Args) != len(e.Args) {
		return false
	}
	for i := range e.Args {
		if !e.Args[i].EqualExpr(c.Args[i]) {
			return false
		}
	}
	return true
}

// Guard is a match-arm time pattern: either an evenly spaced range or an
// explicit set of times.
type Guard struct {
	// IsRange selects between Range and Set.
	IsRange bool
	Range   rational.Range
	Set     []rational.Rat // sorted ascending
}

// RangeGuard builds a range pattern.
func RangeGuard(r rational.Range) Guard { return Guard{IsRange: true, Range: r} }

// SetGuard builds an explicit-times pattern (the input is copied and
// sorted).
func SetGuard(times []rational.Rat) Guard {
	ts := make([]rational.Rat, len(times))
	copy(ts, times)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	return Guard{Set: ts}
}

// Contains reports whether the guard matches time t.
func (g Guard) Contains(t rational.Rat) bool {
	if g.IsRange {
		return g.Range.Contains(t)
	}
	i := sort.Search(len(g.Set), func(i int) bool { return !g.Set[i].Less(t) })
	return i < len(g.Set) && g.Set[i].Equal(t)
}

// Count returns the number of times the guard matches.
func (g Guard) Count() int {
	if g.IsRange {
		return g.Range.Count()
	}
	return len(g.Set)
}

// Interval returns the half-open interval spanned by the guard's times.
func (g Guard) Interval() rational.Interval {
	if g.IsRange {
		return g.Range.Interval()
	}
	if len(g.Set) == 0 {
		return rational.Interval{}
	}
	return rational.Interval{Lo: g.Set[0], Hi: g.Set[len(g.Set)-1]}
}

func (g Guard) String() string {
	if g.IsRange {
		return fmt.Sprintf("range(%s, %s, %s)", g.Range.Start, g.Range.End, g.Range.Step)
	}
	parts := make([]string, len(g.Set))
	for i, t := range g.Set {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// EqualGuard reports whether two guards match exactly the same times.
func (g Guard) EqualGuard(o Guard) bool {
	if g.IsRange && o.IsRange {
		return g.Range.Start.Equal(o.Range.Start) && g.Range.End.Equal(o.Range.End) && g.Range.Step.Equal(o.Range.Step)
	}
	if g.Count() != o.Count() {
		return false
	}
	for i, n := 0, g.Count(); i < n; i++ {
		var a, b rational.Rat
		if g.IsRange {
			a = g.Range.At(i)
		} else {
			a = g.Set[i]
		}
		if o.IsRange {
			b = o.Range.At(i)
		} else {
			b = o.Set[i]
		}
		if !a.Equal(b) {
			return false
		}
	}
	return true
}

// MatchArm is one arm of a match expression: times matching Guard render
// Body.
type MatchArm struct {
	Guard Guard
	Body  Expr
}

// Match dispatches on the time variable: the first arm whose guard
// contains t renders. The paper's Render functions are matches at the top
// level; V2V's rewriter also produces them.
type Match struct {
	Arms []MatchArm
}

func (e Match) String() string {
	var sb strings.Builder
	sb.WriteString("match t {\n")
	for _, a := range e.Arms {
		fmt.Fprintf(&sb, "  t in %s => %s,\n", a.Guard, a.Body)
	}
	sb.WriteString("}")
	return sb.String()
}

func (e Match) EqualExpr(o Expr) bool {
	m, ok := o.(Match)
	if !ok || len(m.Arms) != len(e.Arms) {
		return false
	}
	for i := range e.Arms {
		if !e.Arms[i].Guard.EqualGuard(m.Arms[i].Guard) || !e.Arms[i].Body.EqualExpr(m.Arms[i].Body) {
			return false
		}
	}
	return true
}

// ArmFor returns the body of the first arm matching t, or nil.
func (e Match) ArmFor(t rational.Rat) Expr {
	for _, a := range e.Arms {
		if a.Guard.Contains(t) {
			return a.Body
		}
	}
	return nil
}

// OutputFormat optionally overrides the output stream format. When nil the
// output adopts the source format (format passthrough), which is what
// permits stream copies; an explicit format forces rendering.
type OutputFormat struct {
	Width   int          `json:"width"`
	Height  int          `json:"height"`
	FPS     rational.Rat `json:"fps"`
	Quality int          `json:"quality,omitempty"`
	GOP     int          `json:"gop,omitempty"`
}

// Spec is a complete V2V synthesis specification.
type Spec struct {
	TimeDomain rational.Range
	Render     Expr
	Videos     map[string]string // logical name -> VMF path
	DataFiles  map[string]string // logical name -> annotation JSON path
	DataSQL    map[string]string // logical name -> SQL text (materialized via sqlmini)
	Output     *OutputFormat
}

// Clone returns a shallow copy with fresh maps (expressions are immutable
// and shared).
func (s *Spec) Clone() *Spec {
	out := &Spec{TimeDomain: s.TimeDomain, Render: s.Render, Output: s.Output}
	out.Videos = make(map[string]string, len(s.Videos))
	for k, v := range s.Videos {
		out.Videos[k] = v
	}
	out.DataFiles = make(map[string]string, len(s.DataFiles))
	for k, v := range s.DataFiles {
		out.DataFiles[k] = v
	}
	out.DataSQL = make(map[string]string, len(s.DataSQL))
	for k, v := range s.DataSQL {
		out.DataSQL[k] = v
	}
	return out
}

// IsDataName reports whether name is declared as a data array.
func (s *Spec) IsDataName(name string) bool {
	if _, ok := s.DataFiles[name]; ok {
		return true
	}
	_, ok := s.DataSQL[name]
	return ok
}

// ResolveRefs rewrites the Render tree so indexing of declared data arrays
// uses DataRef and everything else uses VideoRef. The parser emits
// VideoRef for all indexing; this pass fixes the split using the spec's
// declarations. It returns an error for names that are declared neither
// as videos nor as data.
func (s *Spec) ResolveRefs() error {
	var resolve func(e Expr) (Expr, error)
	resolve = func(e Expr) (Expr, error) {
		switch n := e.(type) {
		case VideoRef:
			idx, err := resolve(n.Index)
			if err != nil {
				return nil, err
			}
			if s.IsDataName(n.Name) {
				return DataRef{Name: n.Name, Index: idx}, nil
			}
			if _, ok := s.Videos[n.Name]; !ok {
				return nil, fmt.Errorf("vql: %q is not a declared video or data array", n.Name)
			}
			return VideoRef{Name: n.Name, Index: idx}, nil
		case DataRef:
			idx, err := resolve(n.Index)
			if err != nil {
				return nil, err
			}
			if !s.IsDataName(n.Name) {
				return nil, fmt.Errorf("vql: %q is not a declared data array", n.Name)
			}
			return DataRef{Name: n.Name, Index: idx}, nil
		case BinOp:
			l, err := resolve(n.L)
			if err != nil {
				return nil, err
			}
			r, err := resolve(n.R)
			if err != nil {
				return nil, err
			}
			return BinOp{Op: n.Op, L: l, R: r}, nil
		case Not:
			inner, err := resolve(n.E)
			if err != nil {
				return nil, err
			}
			return Not{E: inner}, nil
		case Neg:
			inner, err := resolve(n.E)
			if err != nil {
				return nil, err
			}
			return Neg{E: inner}, nil
		case Call:
			args := make([]Expr, len(n.Args))
			for i, a := range n.Args {
				ra, err := resolve(a)
				if err != nil {
					return nil, err
				}
				args[i] = ra
			}
			return Call{Name: n.Name, Args: args}, nil
		case Match:
			arms := make([]MatchArm, len(n.Arms))
			for i, a := range n.Arms {
				body, err := resolve(a.Body)
				if err != nil {
					return nil, err
				}
				arms[i] = MatchArm{Guard: a.Guard, Body: body}
			}
			return Match{Arms: arms}, nil
		default:
			return e, nil
		}
	}
	r, err := resolve(s.Render)
	if err != nil {
		return err
	}
	s.Render = r
	return nil
}

// Walk visits every node of the expression tree in preorder.
func Walk(e Expr, visit func(Expr)) {
	visit(e)
	switch n := e.(type) {
	case BinOp:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case Not:
		Walk(n.E, visit)
	case Neg:
		Walk(n.E, visit)
	case VideoRef:
		Walk(n.Index, visit)
	case DataRef:
		Walk(n.Index, visit)
	case Call:
		for _, a := range n.Args {
			Walk(a, visit)
		}
	case Match:
		for _, a := range n.Arms {
			Walk(a.Body, visit)
		}
	}
}

// UsesTime reports whether the expression references the time variable.
func UsesTime(e Expr) bool {
	found := false
	Walk(e, func(n Expr) {
		if _, ok := n.(TimeVar); ok {
			found = true
		}
	})
	return found
}

// RenderFor returns the effective render expression at time t: the match
// arm body if Render is a match, else Render itself.
func (s *Spec) RenderFor(t rational.Rat) Expr {
	if m, ok := s.Render.(Match); ok {
		return m.ArmFor(t)
	}
	return s.Render
}
