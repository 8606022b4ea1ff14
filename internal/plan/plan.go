// Package plan defines V2V's execution plans and builds the unoptimized
// logical plan from a checked spec.
//
// A plan is an ordered list of segments, one per contiguous stretch of
// output times rendered by the same expression; the implicit root operator
// concatenates the segments' packets into the output stream (Fig. 2 of the
// paper). Segments come in two kinds:
//
//   - frame segments execute an operator tree (Clip leaves feeding Filter
//     nodes). In the unoptimized plan every operator boundary materializes
//     its frames through an encode/decode pair — the cost the paper's
//     operator-merging optimization removes.
//   - copy segments stream-copy packets from a source without re-encoding.
//
// A smart cut (§III-D) is one of each: a frame segment that re-encodes the
// clip up to its first keyframe, then a copy segment for the rest.
//
// The optimizer (package opt) rewrites plans between these forms; the
// executor (package exec) runs them.
package plan

import (
	"fmt"

	"v2v/internal/check"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

// SegKind discriminates segment execution strategies.
type SegKind uint8

const (
	// SegFrames renders each output time through an operator tree.
	SegFrames SegKind = iota
	// SegCopy stream-copies a keyframe-aligned packet range.
	SegCopy
)

func (k SegKind) String() string {
	switch k {
	case SegFrames:
		return "render"
	case SegCopy:
		return "copy"
	default:
		return "?"
	}
}

// PortRef is a plan-local expression leaf referring to the frame produced
// by the node's i-th input. It implements vql.Expr so merged and layered
// filter expressions share the evaluator.
type PortRef struct{ Port int }

func (p PortRef) String() string { return fmt.Sprintf("$%d", p.Port) }

// EqualExpr reports structural equality with another expression.
func (p PortRef) EqualExpr(o vql.Expr) bool {
	q, ok := o.(PortRef)
	return ok && q.Port == p.Port
}

// Clip identifies a source read: frames of Video at time Index(t).
type Clip struct {
	Video string
	Index vql.Expr
}

// Node is one operator in a frame segment's tree. Exactly one of Clip or
// Expr is set: leaves clip a source video; interior nodes evaluate Expr,
// whose PortRef leaves draw frames from Inputs.
type Node struct {
	Clip   *Clip
	Expr   vql.Expr
	Inputs []*Node
	// Materialize marks an unoptimized operator boundary: this node's
	// output frames pass through an intermediate encode/decode pair, as
	// when each operator is a separate FFmpeg invocation. The optimizer's
	// merge pass eliminates these.
	Materialize bool
}

// IsLeaf reports whether the node is a source clip.
func (n *Node) IsLeaf() bool { return n.Clip != nil }

// Segment is one contiguous output stretch.
type Segment struct {
	// Times are the output presentation times this segment renders.
	Times rational.Range
	Kind  SegKind
	// Root is the operator tree (SegFrames only).
	Root *Node
	// Video/From/To identify the copied packet range (SegCopy). On a frame
	// segment they name the packets it re-encodes as the head of a smart cut
	// — the copy segment after it is the tail — for EXPLAIN only: the head
	// executes, caches and is priced through Root like any frame segment.
	Video    string
	From, To int
	// Cuts are the output-frame indices at which the optimizer's shard pass
	// cuts this frame segment into shards: ascending, each inside
	// (0, FrameCount()); empty means one shard. Every shard starts its own
	// encoder (so on a keyframe) and its own source cursors (so rolling
	// forward from a source keyframe). Executor, EXPLAIN, cost estimate and
	// result-cache key all read the shard shape through Bounds.
	Cuts []int
	// EstCost is the segment's static cost estimate, set by
	// plan.EstimateCosts (from Build and again after optimizer passes
	// change segment kinds). The admission controller weighs requests by
	// the plan-wide sum; EXPLAIN prints it per segment.
	EstCost Cost
}

// Plan is an executable synthesis plan.
type Plan struct {
	Checked  *check.Checked
	Segments []*Segment
	// Optimized records whether the optimizer processed this plan (for
	// explain output only; execution reads the segments).
	Optimized bool
	// Notes accumulates optimizer pass annotations for explain output.
	Notes []string
}

// Build constructs the unoptimized logical plan: match arms become frame
// segments in output order, each Call becomes its own materialized filter
// operator, and every video reference becomes a clip operator (§III-C's
// mapping from declarative definition to Concat/Clip/Filter).
func Build(c *check.Checked) (*Plan, error) {
	segs, err := splitSegments(c.Spec)
	if err != nil {
		return nil, err
	}
	p := &Plan{Checked: c}
	for _, s := range segs {
		root, err := buildTree(s.body)
		if err != nil {
			return nil, err
		}
		// The root operator's encode is the output encode performed by
		// the writer; only interior operator boundaries materialize.
		root.Materialize = false
		p.Segments = append(p.Segments, &Segment{
			Times: s.times, Kind: SegFrames, Root: root,
		})
	}
	EstimateCosts(p)
	return p, nil
}

type rawSegment struct {
	times rational.Range
	body  vql.Expr
}

// splitSegments orders the spec's match arms along the output timeline,
// splitting at arm switches. Non-match renders yield a single segment.
func splitSegments(spec *vql.Spec) ([]rawSegment, error) {
	domain := spec.TimeDomain
	m, ok := spec.Render.(vql.Match)
	if !ok {
		return []rawSegment{{times: domain, body: spec.Render}}, nil
	}
	var out []rawSegment
	n := domain.Count()
	cur := -1
	start := 0
	flush := func(end int) {
		if cur < 0 || end <= start {
			return
		}
		sub := rational.NewRange(domain.At(start), domain.At(end-1).Add(domain.Step), domain.Step)
		out = append(out, rawSegment{times: sub, body: m.Arms[cur].Body})
	}
	for i := 0; i < n; i++ {
		at := domain.At(i)
		matched := -1
		for ai, arm := range m.Arms {
			if arm.Guard.Contains(at) {
				matched = ai
				break
			}
		}
		if matched == -1 {
			return nil, fmt.Errorf("plan: match does not cover t=%s", at)
		}
		if matched != cur {
			flush(i)
			cur, start = matched, i
		}
	}
	flush(n)
	return out, nil
}

// buildTree decomposes a frame expression into the layered operator tree.
func buildTree(e vql.Expr) (*Node, error) {
	switch n := e.(type) {
	case vql.VideoRef:
		return &Node{Clip: &Clip{Video: n.Name, Index: n.Index}, Materialize: true}, nil
	case vql.Call:
		tr, ok := vql.Lookup(n.Name)
		if !ok {
			return nil, fmt.Errorf("plan: unknown transform %q", n.Name)
		}
		if tr.Result != vql.TypeFrame {
			return nil, fmt.Errorf("plan: %s does not produce a frame", n.Name)
		}
		var inputs []*Node
		args := make([]vql.Expr, len(n.Args))
		for i, a := range n.Args {
			if vql.IsFrameExpr(a) {
				child, err := buildTree(a)
				if err != nil {
					return nil, err
				}
				args[i] = PortRef{Port: len(inputs)}
				inputs = append(inputs, child)
				continue
			}
			args[i] = a
		}
		return &Node{
			Expr:        vql.Call{Name: n.Name, Args: args},
			Inputs:      inputs,
			Materialize: true,
		}, nil
	default:
		return nil, fmt.Errorf("plan: expression %s does not produce a frame", e)
	}
}

// Walk visits every node of a segment tree in preorder.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, in := range n.Inputs {
		in.Walk(visit)
	}
}

// CountOps returns the number of operator nodes in the tree.
func (n *Node) CountOps() int {
	count := 0
	n.Walk(func(*Node) { count++ })
	return count
}

// MergedExpr returns the single expression equivalent to the subtree, with
// PortRef leaves substituted by their input subexpressions. Clip leaves
// become plain video references — the "pull the clip into the filter"
// rewrite.
func (n *Node) MergedExpr() vql.Expr {
	if n.IsLeaf() {
		return vql.VideoRef{Name: n.Clip.Video, Index: n.Clip.Index}
	}
	return substitutePorts(n.Expr, n.Inputs)
}

func substitutePorts(e vql.Expr, inputs []*Node) vql.Expr {
	switch x := e.(type) {
	case PortRef:
		return inputs[x.Port].MergedExpr()
	case vql.Call:
		args := make([]vql.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substitutePorts(a, inputs)
		}
		return vql.Call{Name: x.Name, Args: args}
	case vql.BinOp:
		return vql.BinOp{Op: x.Op, L: substitutePorts(x.L, inputs), R: substitutePorts(x.R, inputs)}
	case vql.Not:
		return vql.Not{E: substitutePorts(x.E, inputs)}
	case vql.Neg:
		return vql.Neg{E: substitutePorts(x.E, inputs)}
	default:
		return e
	}
}

// PlainClip reports whether the segment's tree is exactly one clip leaf
// whose index is affine (t + c) — the shape eligible for stream copying.
func (s *Segment) PlainClip() (video string, offset rational.Rat, ok bool) {
	if s.Kind != SegFrames || s.Root == nil || !s.Root.IsLeaf() {
		return "", rational.Rat{}, false
	}
	off, affine := check.AffineOffset(s.Root.Clip.Index)
	if !affine {
		return "", rational.Rat{}, false
	}
	return s.Root.Clip.Video, off, true
}

// FrameCount returns the number of output frames the segment renders.
func (s *Segment) FrameCount() int { return s.Times.Count() }

// MinShardFrames is the shortest shard the optimizer makes, in output
// frames: one output GOP, or one second of output where the GOP is longer.
// A shorter shard would buy an I-frame for less than a second of output,
// and a shorter minimum would cut the 45-frame render arms of the
// copy-led queries, which measured 7 % fewer frames per second
// (docs/PERFORMANCE.md "Cost-gated shard cuts").
func (p *Plan) MinShardFrames() int {
	out := p.Checked.Output
	frames := max(int(out.FPS.Floor()), 1)
	if out.GOP > 0 && out.GOP < frames {
		frames = out.GOP
	}
	return frames
}

// Bounds returns the segment's shard boundaries in output frames, 0 and
// FrameCount() included. A cut outside (0, FrameCount()) or not above its
// predecessor is dropped, so a hand-built plan cannot make the executor,
// EXPLAIN and the cache key disagree about the shards.
func (s *Segment) Bounds() []int {
	frames := s.FrameCount()
	bounds := []int{0}
	if s.Kind == SegFrames {
		for _, c := range s.Cuts {
			if c > bounds[len(bounds)-1] && c < frames {
				bounds = append(bounds, c)
			}
		}
	}
	return append(bounds, frames)
}

// Tap is one source read per output frame of a frame segment: Video at
// source time t + Off. Affine is false when the index is not of that form,
// so where the tap reads is unknown without evaluating it.
type Tap struct {
	Video  string
	Off    rational.Rat
	Affine bool
}

// Taps lists the source taps of the segment's operator tree: clip leaves
// plus the video references inside merged filter expressions.
func (s *Segment) Taps() []Tap {
	if s.Kind != SegFrames || s.Root == nil {
		return nil
	}
	var taps []Tap
	add := func(video string, idx vql.Expr) {
		off, affine := check.AffineOffset(idx)
		taps = append(taps, Tap{Video: video, Off: off, Affine: affine})
	}
	var walkExpr func(e vql.Expr)
	walkExpr = func(e vql.Expr) {
		switch x := e.(type) {
		case vql.VideoRef:
			add(x.Name, x.Index)
		case vql.Call:
			for _, a := range x.Args {
				walkExpr(a)
			}
		case vql.BinOp:
			walkExpr(x.L)
			walkExpr(x.R)
		case vql.Not:
			walkExpr(x.E)
		case vql.Neg:
			walkExpr(x.E)
		}
	}
	s.Root.Walk(func(n *Node) {
		switch {
		case n.IsLeaf():
			add(n.Clip.Video, n.Clip.Index)
		case n.Expr != nil:
			walkExpr(n.Expr)
		}
	})
	return taps
}
