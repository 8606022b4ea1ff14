package plan

import (
	"fmt"
	"strings"

	"v2v/internal/obs"
)

// Explain renders the plan as an indented text tree, the V2V analogue of
// EXPLAIN for relational plans (and of the paper's Fig. 2 diagrams).
func (p *Plan) Explain() string {
	return p.explain(nil)
}

// ExplainAnalyze renders the plan tree annotated with each segment's
// measured costs (exec.Metrics.Segments) — the analogue of relational
// EXPLAIN ANALYZE, making plan-vs-reality discrepancies visible (e.g. a
// smart cut whose re-encoded head dominates the copy after it). Segments
// beyond len(actuals) render without annotation.
func (p *Plan) ExplainAnalyze(actuals []obs.SegmentActuals) string {
	return p.explain(func(i int) string {
		if i >= len(actuals) {
			return ""
		}
		return "  [" + actuals[i].String() + "]"
	})
}

// explain writes the tree; annotate (optional) returns a suffix for the
// i-th segment's line.
func (p *Plan) explain(annotate func(i int) string) string {
	var sb strings.Builder
	mode := "unoptimized"
	if p.Optimized {
		mode = "optimized"
	}
	out := p.Checked.Output
	fmt.Fprintf(&sb, "plan (%s): output %dx%d@%s gop=%d passthrough=%t\n",
		mode, out.Width, out.Height, out.FPS, out.GOP, p.Checked.Passthrough)
	if total := p.EstimatedCost(); !total.IsZero() {
		fmt.Fprintf(&sb, "estimated cost: %s\n", total)
	}
	fmt.Fprintf(&sb, "concat (%d segments)\n", len(p.Segments))
	for i, s := range p.Segments {
		last := i == len(p.Segments)-1
		branch := "├─ "
		cont := "│  "
		if last {
			branch = "└─ "
			cont = "   "
		}
		suffix := ""
		if !s.EstCost.IsZero() {
			suffix = "  [est: " + s.EstCost.String() + "]"
		}
		if annotate != nil {
			suffix += annotate(i)
		}
		switch s.Kind {
		case SegCopy:
			fmt.Fprintf(&sb, "%scopy %s packets [%d,%d) t in [%s,%s)%s\n",
				branch, s.Video, s.From, s.To, s.Times.Start, s.Times.End, suffix)
		default:
			shard := ""
			if s.Video != "" {
				shard = fmt.Sprintf(" smart-cut head of %s [%d,%d)", s.Video, s.From, s.To)
			}
			if bounds := s.Bounds(); len(bounds) > 2 {
				// The shard boundaries, and the roll-forward decodes each
				// shard's start is estimated to cost.
				roll := s.RollForward(p)
				var cuts, rolls []string
				for _, lo := range bounds[:len(bounds)-1] {
					cuts = append(cuts, fmt.Sprint(lo))
					rolls = append(rolls, fmt.Sprint(roll(lo)))
				}
				shard += fmt.Sprintf(" cuts=[%s,%d) roll=[%s]",
					strings.Join(cuts, ","), s.FrameCount(), strings.Join(rolls, ","))
			}
			fmt.Fprintf(&sb, "%srender t in [%s,%s) (%d frames)%s%s\n",
				branch, s.Times.Start, s.Times.End, s.FrameCount(), shard, suffix)
			writeNode(&sb, s.Root, cont, true)
		}
	}
	for _, note := range p.Notes {
		fmt.Fprintf(&sb, "-- %s\n", note)
	}
	return sb.String()
}

func writeNode(sb *strings.Builder, n *Node, prefix string, last bool) {
	branch := "├─ "
	cont := "│  "
	if last {
		branch = "└─ "
		cont = "   "
	}
	mat := ""
	if n.Materialize {
		mat = " [materialize]"
	}
	if n.IsLeaf() {
		fmt.Fprintf(sb, "%s%sclip %s[%s]%s\n", prefix, branch, n.Clip.Video, n.Clip.Index, mat)
		return
	}
	fmt.Fprintf(sb, "%s%sfilter %s%s\n", prefix, branch, n.Expr, mat)
	for i, in := range n.Inputs {
		writeNode(sb, in, prefix+cont, i == len(n.Inputs)-1)
	}
}

// DOT renders the plan as a Graphviz digraph, mirroring the paper's plan
// diagrams (grey diamonds for stream-copy operators).
func (p *Plan) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph v2vplan {\n  rankdir=BT;\n  node [shape=box, fontname=\"monospace\"];\n")
	sb.WriteString("  out [label=\"output\", shape=doubleoctagon];\n")
	sb.WriteString("  concat [label=\"concat\"];\n  concat -> out;\n")
	id := 0
	newID := func() string {
		id++
		return fmt.Sprintf("n%d", id)
	}
	var emit func(n *Node) string
	emit = func(n *Node) string {
		me := newID()
		switch {
		case n.IsLeaf():
			fmt.Fprintf(&sb, "  %s [label=\"clip %s[%s]\"];\n", me, n.Clip.Video, escape(n.Clip.Index.String()))
		default:
			fmt.Fprintf(&sb, "  %s [label=\"filter %s\"];\n", me, escape(n.Expr.String()))
		}
		if n.Materialize {
			matID := newID()
			fmt.Fprintf(&sb, "  %s [label=\"enc/dec\", shape=ellipse, style=dashed];\n", matID)
			fmt.Fprintf(&sb, "  %s -> %s;\n", me, matID)
			for _, in := range n.Inputs {
				child := emit(in)
				fmt.Fprintf(&sb, "  %s -> %s;\n", child, me)
			}
			return matID
		}
		for _, in := range n.Inputs {
			child := emit(in)
			fmt.Fprintf(&sb, "  %s -> %s;\n", child, me)
		}
		return me
	}
	for _, s := range p.Segments {
		switch s.Kind {
		case SegCopy:
			me := newID()
			fmt.Fprintf(&sb, "  %s [label=\"copy %s [%d,%d)\", shape=diamond, style=filled, fillcolor=lightgrey];\n",
				me, s.Video, s.From, s.To)
			fmt.Fprintf(&sb, "  %s -> concat;\n", me)
		default:
			root := emit(s.Root)
			if n := len(s.Bounds()) - 1; n > 1 {
				sh := newID()
				fmt.Fprintf(&sb, "  %s [label=\"shard ×%d\", shape=parallelogram];\n", sh, n)
				fmt.Fprintf(&sb, "  %s -> %s;\n  %s -> concat;\n", root, sh, sh)
			} else {
				fmt.Fprintf(&sb, "  %s -> concat;\n", root)
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func escape(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
