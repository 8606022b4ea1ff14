// Package rewrite implements V2V's data-dependent rewriter (§IV-C of the
// paper): the first, data-only pass of the two-pass execution method.
//
// For each time in the spec's domain, the rewriter evaluates the *data*
// parameters of every transform that declares a data-dependent equivalence
// function f_dde (frame parameters stay symbolic placeholders) and replaces
// the call with the simpler equivalent expression f_dde returns — e.g.
// IfThenElse collapses to the taken branch, and BoundingBox over an empty
// box list collapses to the plain video reference. Consecutive times whose
// rewritten render expressions coincide are then grouped into match arms.
//
// The result is an equivalent spec *on the referenced data* that exposes
// identity stretches to the downstream (data-oblivious) optimizer, which
// can then stream-copy them.
package rewrite

import (
	"fmt"

	"v2v/internal/check"
	"v2v/internal/data"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

// Stats reports what the rewriter did.
type Stats struct {
	// Applied counts f_dde rewrites by transform name.
	Applied map[string]int
	// TimesEvaluated is the number of (time, call) data evaluations.
	TimesEvaluated int
	// ArmsBefore and ArmsAfter count match arms around the pass.
	ArmsBefore int
	ArmsAfter  int
	// Skipped is true when the spec had nothing data-dependent to rewrite.
	Skipped bool
}

// Rewrite applies the data-only pass to a checked spec and returns the
// rewritten spec (a new spec sharing sources) plus statistics. The input
// is not modified.
func Rewrite(c *check.Checked) (*vql.Spec, Stats, error) {
	spec := c.Spec
	stats := Stats{Applied: map[string]int{}}
	if m, ok := spec.Render.(vql.Match); ok {
		stats.ArmsBefore = len(m.Arms)
	} else {
		stats.ArmsBefore = 1
	}

	if !hasPerTimeDependence(spec.Render) {
		// No f_dde argument varies with time or data; a single static
		// fold (constant arguments only) is complete.
		rw := &rewriter{data: c.Arrays, stats: &stats}
		out, changed, err := rw.rewriteStatic(spec)
		if err != nil {
			return nil, stats, err
		}
		if !changed {
			stats.Skipped = true
			stats.ArmsAfter = stats.ArmsBefore
			return spec, stats, nil
		}
		if m, ok := out.Render.(vql.Match); ok {
			stats.ArmsAfter = len(m.Arms)
		} else {
			stats.ArmsAfter = 1
		}
		return out, stats, nil
	}
	domain := spec.TimeDomain
	n := domain.Count()

	type armAcc struct {
		start int
		body  vql.Expr
	}
	var arms []vql.MatchArm
	var cur *armAcc
	flush := func(endExclusive int) {
		if cur == nil {
			return
		}
		sub := rational.NewRange(domain.At(cur.start), domain.At(endExclusive-1).Add(domain.Step), domain.Step)
		arms = append(arms, vql.MatchArm{Guard: vql.RangeGuard(sub), Body: cur.body})
		cur = nil
	}

	rw := &rewriter{data: c.Arrays, stats: &stats}
	for i := 0; i < n; i++ {
		at := domain.At(i)
		body := spec.RenderFor(at)
		if body == nil {
			return nil, stats, fmt.Errorf("rewrite: no match arm covers t=%s", at)
		}
		newBody, err := rw.rewriteAt(body, at)
		if err != nil {
			return nil, stats, err
		}
		if cur != nil && cur.body.EqualExpr(newBody) {
			continue
		}
		flush(i)
		cur = &armAcc{start: i, body: newBody}
	}
	flush(n)

	out := spec.Clone()
	if len(arms) == 1 && arms[0].Guard.EqualGuard(vql.RangeGuard(domain)) {
		out.Render = arms[0].Body
	} else {
		out.Render = vql.Match{Arms: arms}
	}
	stats.ArmsAfter = len(arms)
	return out, stats, nil
}

// hasPerTimeDependence reports whether any f_dde call has a non-frame
// argument that varies with time or data. Only such specs need the
// per-time enumeration; constant-argument f_dde calls fold statically.
func hasPerTimeDependence(e vql.Expr) bool {
	found := false
	vql.Walk(e, func(n vql.Expr) {
		c, ok := n.(vql.Call)
		if !ok || found {
			return
		}
		tr, ok := vql.Lookup(c.Name)
		if !ok || tr.DDE == nil {
			return
		}
		for _, a := range c.Args {
			if !containsFrame(a) && containsTimeOrData(a) {
				found = true
				return
			}
		}
	})
	return found
}

// containsTimeOrData reports whether the expression references t or a data
// array (i.e. its value varies per output frame).
func containsTimeOrData(e vql.Expr) bool {
	found := false
	vql.Walk(e, func(n vql.Expr) {
		switch n.(type) {
		case vql.TimeVar, vql.DataRef:
			found = true
		}
	})
	return found
}

// rewriteStatic applies f_dde folds whose non-frame arguments are all
// constants, once for the whole spec. Time- or data-dependent arguments
// are passed as invalid placeholders so no f_dde mistakes them for known
// values.
func (r *rewriter) rewriteStatic(spec *vql.Spec) (*vql.Spec, bool, error) {
	fold := func(body vql.Expr) (vql.Expr, error) {
		// Any constant evaluation is time-independent; evaluate at the
		// domain start (the env's T is unused by constant expressions).
		return r.rewriteAtWith(body, spec.TimeDomain.Start, true)
	}
	changed := false
	var render vql.Expr
	if m, ok := spec.Render.(vql.Match); ok {
		arms := make([]vql.MatchArm, len(m.Arms))
		for i, a := range m.Arms {
			nb, err := fold(a.Body)
			if err != nil {
				return nil, false, err
			}
			if !nb.EqualExpr(a.Body) {
				changed = true
			}
			arms[i] = vql.MatchArm{Guard: a.Guard, Body: nb}
		}
		render = vql.Match{Arms: arms}
	} else {
		nb, err := fold(spec.Render)
		if err != nil {
			return nil, false, err
		}
		changed = !nb.EqualExpr(spec.Render)
		render = nb
	}
	if !changed {
		return spec, false, nil
	}
	out := spec.Clone()
	out.Render = render
	return out, true, nil
}

type rewriter struct {
	data  data.Arrays
	stats *Stats
}

// rewriteAt rewrites the body expression for one specific time.
func (r *rewriter) rewriteAt(e vql.Expr, at rational.Rat) (vql.Expr, error) {
	return r.rewriteAtWith(e, at, false)
}

// rewriteAtWith rewrites e at time at. In staticOnly mode, time- or
// data-dependent non-frame arguments are passed to f_dde as invalid
// placeholders (unknown) instead of being evaluated.
func (r *rewriter) rewriteAtWith(e vql.Expr, at rational.Rat, staticOnly bool) (vql.Expr, error) {
	switch n := e.(type) {
	case vql.Call:
		args := make([]vql.Expr, len(n.Args))
		for i, a := range n.Args {
			ra, err := r.rewriteAtWith(a, at, staticOnly)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		out := vql.Call{Name: n.Name, Args: args}
		tr, ok := vql.Lookup(n.Name)
		if !ok || tr.DDE == nil {
			return out, nil
		}
		vals := make([]vql.Val, len(args))
		for i, a := range args {
			if containsFrame(a) {
				vals[i] = vql.Val{Type: vql.TypeFrame}
				continue
			}
			if staticOnly && containsTimeOrData(a) {
				vals[i] = vql.Val{Type: vql.TypeInvalid}
				continue
			}
			v, err := vql.Eval(a, &vql.Env{T: at, Data: r.data})
			if err != nil {
				return nil, fmt.Errorf("rewrite: evaluating %s at t=%s: %w", a, at, err)
			}
			vals[i] = v
			r.stats.TimesEvaluated++
		}
		if repl, ok := tr.DDE(args, vals); ok {
			r.stats.Applied[n.Name]++
			return repl, nil
		}
		return out, nil
	case vql.BinOp:
		l, err := r.rewriteAtWith(n.L, at, staticOnly)
		if err != nil {
			return nil, err
		}
		rr, err := r.rewriteAtWith(n.R, at, staticOnly)
		if err != nil {
			return nil, err
		}
		return vql.BinOp{Op: n.Op, L: l, R: rr}, nil
	case vql.Not:
		inner, err := r.rewriteAtWith(n.E, at, staticOnly)
		if err != nil {
			return nil, err
		}
		return vql.Not{E: inner}, nil
	case vql.Neg:
		inner, err := r.rewriteAtWith(n.E, at, staticOnly)
		if err != nil {
			return nil, err
		}
		return vql.Neg{E: inner}, nil
	default:
		// Literals, t, video and data references stay symbolic: the
		// rewritten spec keeps indexes in terms of t so that consecutive
		// times group into arms.
		return e, nil
	}
}

// containsFrame reports whether the expression produces or contains frames
// (and therefore cannot be evaluated during the data-only pass).
func containsFrame(e vql.Expr) bool {
	found := false
	vql.Walk(e, func(n vql.Expr) {
		if vql.IsFrameExpr(n) {
			found = true
		}
	})
	return found
}
