// Package opt implements V2V's heuristic plan optimizer (§III-D): operator
// merging (clip pushdown into filters), stream copying, smart cuts, and
// temporal sharding for parallel execution. Like a relational optimizer it
// rewrites plans without consulting data values — data-aware improvements
// happen earlier, in the spec-level data-dependent rewriter.
package opt

import (
	"fmt"
	"sort"

	"v2v/internal/obs"
	"v2v/internal/plan"
	"v2v/internal/rational"
)

// Options selects optimizer passes. The zero value disables everything;
// use Default() for the full optimizer.
type Options struct {
	// MergeSegments joins adjacent segments with identical render
	// expressions.
	MergeSegments bool
	// MergeFilters collapses each segment's layered operator tree into a
	// single filter, removing intermediate encode/decode pairs.
	MergeFilters bool
	// StreamCopy converts keyframe-aligned plain clips into packet copies
	// (passthrough plans only).
	StreamCopy bool
	// SmartCut converts unaligned plain clips into smart cuts — a render
	// segment up to the first keyframe, a copy from there (passthrough plans
	// only).
	SmartCut bool
	// Shard cuts render segments into parallel shards wherever plan.Cost
	// says a cut moves more work to another worker than it adds.
	Shard bool
	// Parallelism bounds shard fan-out: the number the executor will run
	// with (core.Options resolves both). Below 2 means no sharding.
	Parallelism int
	// Trace, when set, receives one event per optimizer pass.
	Trace *obs.Trace
}

// Default returns the full optimizer configuration.
func Default() Options {
	return Options{
		MergeSegments: true,
		MergeFilters:  true,
		StreamCopy:    true,
		SmartCut:      true,
		Shard:         true,
	}
}

// Stats reports what each pass did.
type Stats struct {
	SegmentsMerged int
	FiltersMerged  int // operator boundaries (materializations) removed
	Copies         int
	SmartCuts      int
	ShardedSegs    int
}

// Optimize rewrites p in place and returns pass statistics.
func Optimize(p *plan.Plan, o Options) (Stats, error) {
	var st Stats
	passes := obs.NewRecorder().Bind(o.Trace)
	// count runs one pass in a node of its own and records its count.
	count := func(name, attr string, pass func(*plan.Plan) int) int {
		node := passes.Child(name)
		defer node.End()
		n := pass(p)
		node.SetAttr(attr, n)
		return n
	}
	if o.MergeSegments {
		st.SegmentsMerged = count("opt.merge_segments", "merged", mergeSegments)
	}
	if o.MergeFilters {
		st.FiltersMerged = count("opt.merge_filters", "boundaries_removed", mergeFilters)
	}
	if (o.StreamCopy || o.SmartCut) && p.Checked.Passthrough {
		node := passes.Child("opt.copy")
		n, err := copyPass(p, o)
		if err != nil {
			node.SetAttr("error", err.Error())
			node.End()
			return st, err
		}
		st.Copies, st.SmartCuts = n.copies, n.smartcuts
		node.SetAttr("copies", n.copies)
		node.SetAttr("smart_cuts", n.smartcuts)
		node.End()
	}
	if o.Shard {
		st.ShardedSegs = count("opt.shard", "sharded", func(p *plan.Plan) int { return shardPass(p, o.Parallelism) })
	}
	p.Optimized = true
	// Segment kinds and operator boundaries changed above — re-estimate so
	// admission weights and EXPLAIN reflect the plan that executes.
	plan.EstimateCosts(p)
	p.Notes = append(p.Notes, fmt.Sprintf(
		"opt: merged %d segments, removed %d op boundaries, %d copies, %d smart cuts, %d sharded",
		st.SegmentsMerged, st.FiltersMerged, st.Copies, st.SmartCuts, st.ShardedSegs))
	return st, nil
}

// mergeSegments joins adjacent frame segments whose render expressions are
// structurally identical (the arms the data-dependent rewriter could not
// merge because a different arm sat between them at spec level cannot
// merge here either; only truly adjacent equal segments join).
func mergeSegments(p *plan.Plan) int {
	if len(p.Segments) < 2 {
		return 0
	}
	merged := 0
	out := p.Segments[:1]
	for _, s := range p.Segments[1:] {
		last := out[len(out)-1]
		if last.Kind == plan.SegFrames && s.Kind == plan.SegFrames &&
			last.Times.Step.Equal(s.Times.Step) &&
			last.Times.End.Equal(s.Times.Start) &&
			last.Root.MergedExpr().EqualExpr(s.Root.MergedExpr()) {
			last.Times = rational.NewRange(last.Times.Start, s.Times.End, last.Times.Step)
			merged++
			continue
		}
		out = append(out, s)
	}
	p.Segments = out
	return merged
}

// mergeFilters collapses each segment's operator tree to a single node,
// eliminating intermediate materializations ("avoiding an unnecessary
// encode/decode pair" and pulling clips into filters).
func mergeFilters(p *plan.Plan) int {
	removed := 0
	for _, s := range p.Segments {
		if s.Kind != plan.SegFrames || s.Root == nil {
			continue
		}
		boundaries := 0
		s.Root.Walk(func(n *plan.Node) {
			if n.Materialize {
				boundaries++
			}
		})
		if s.Root.IsLeaf() {
			// A bare clip keeps its leaf; only the boundary flag drops.
			s.Root = &plan.Node{Clip: s.Root.Clip}
			removed += boundaries
			continue
		}
		merged := s.Root.MergedExpr()
		s.Root = &plan.Node{Expr: merged}
		removed += boundaries
	}
	return removed
}

type copyCounts struct{ copies, smartcuts int }

// copyPass converts plain-clip segments into packet copies. A clip that
// starts on a keyframe becomes one copy segment. A smart cut — a clip that
// starts mid-GOP with a keyframe inside its range — becomes two segments:
// the frames before that keyframe stay a frame segment on the clip leaf they
// already have (an ordinary render: sharded, cached and priced as one), and
// the rest is a copy. It reads each source's keyframes from the index
// Check loaded (check.Source), opening no file.
func copyPass(p *plan.Plan, o Options) (copyCounts, error) {
	var n copyCounts
	segs := make([]*plan.Segment, 0, len(p.Segments))
	for _, s := range p.Segments {
		segs = append(segs, s)
		video, off, ok := s.PlainClip()
		if !ok || s.Times.Count() == 0 {
			continue
		}
		src, ok := p.Checked.Sources[video]
		if !ok {
			return n, fmt.Errorf("opt: unknown video %q", video)
		}
		info := src.Info()
		srcStart := s.Times.Start.Add(off)
		pts, exact := info.PTSOf(srcStart)
		if !exact {
			continue // should not happen post-check; stay safe
		}
		i0, found := src.IndexOfPTS(pts)
		if !found {
			continue
		}
		i1 := i0 + s.Times.Count()
		if i1 > src.NumPackets() {
			continue
		}
		tail := s // the segment that becomes the copy
		if src.Record(i0).Key {
			if !o.StreamCopy {
				continue
			}
			n.copies++
		} else {
			if !o.SmartCut {
				continue
			}
			// A smart cut only pays off if some keyframe lies inside the
			// range; otherwise the whole range re-encodes anyway (the
			// paper's Q1-on-ToS case, where plans were identical).
			k, ok := src.NextKeyframeAfter(i0)
			if !ok || k >= i1 {
				continue
			}
			// s keeps its clip leaf and the frames before the keyframe; the
			// copy is a new segment after it.
			cut := s.Times.At(k - i0)
			tail = &plan.Segment{Times: rational.NewRange(cut, s.Times.End, s.Times.Step)}
			segs = append(segs, tail)
			s.Times = rational.NewRange(s.Times.Start, cut, s.Times.Step)
			s.Video, s.From, s.To = video, i0, k
			i0 = k
			n.smartcuts++
		}
		tail.Kind = plan.SegCopy
		tail.Video, tail.From, tail.To = video, i0, i1
		tail.Root = nil
	}
	p.Segments = segs
	return n, nil
}

// extraKeyframe is what a cut costs besides its roll-forward: the shard's
// fresh encoder opens on an I-frame the uncut stream would have coded as a
// P-frame — charged as one more encode (docs/PERFORMANCE.md "Cost-gated
// shard cuts" has the measurement).
var extraKeyframe = plan.Cost{EncodeFrames: 1}.Units()

// shardPass decides where each render segment is cut into shards, by
// plan.Cost. It tries the widest fan-out first — the parallelism, or as
// many shards of MinShardFrames as the segment holds, if fewer — and
// keeps the first that cutSegment accepts.
func shardPass(p *plan.Plan, parallelism int) int {
	shortest := p.MinShardFrames()
	gop := max(p.Checked.Output.GOP, 1)
	sharded := 0
	for _, s := range p.Segments {
		if s.Kind != plan.SegFrames || s.Root == nil {
			continue
		}
		s.Cuts = nil
		frames := s.FrameCount()
		widest := min(parallelism, frames/shortest)
		if widest < 2 {
			continue
		}
		// What starting a shard at lo costs: the roll-forward decodes from
		// the source keyframe before each tap's first read and, off the
		// output's keyframe cadence, an extra I-frame. Memoized (as cost+1):
		// the fan-outs and budgets tried revisit the same few frames.
		roll, memo := s.RollForward(p), make([]float64, frames)
		start := func(lo int) float64 {
			if memo[lo] == 0 {
				memo[lo] = 1 + plan.Cost{DecodeFrames: roll(lo)}.Units()
				if lo%gop != 0 {
					memo[lo] += extraKeyframe
				}
			}
			return memo[lo] - 1
		}
		perFrame := s.FrameCost().Units()
		for n := widest; n > 1 && s.Cuts == nil; n-- {
			s.Cuts = cutSegment(frames, n, shortest, perFrame, start)
		}
		if s.Cuts != nil {
			sharded++
		}
	}
	return sharded
}

// cutSegment cuts frames output frames into up to n shards so that the
// dearest shard is as cheap as it can be, a shard [lo,hi) costing
// (hi-lo)*perFrame + start(lo). It returns nil unless every cut moves
// more work to another worker than starting there costs and every shard
// has at least shortest frames.
//
// A frame costs more than the one decode per tap by which a later start
// can lengthen the roll-forward, so starting a shard later never makes
// the rest dearer: giving each shard in turn as many frames as a budget
// allows reaches the end whenever any cuts within that budget do, and the
// smallest budget that reaches it is the optimum. A cut lands on a source
// keyframe exactly when that is the cheapest place for it — there is no
// separate snapping rule.
func cutSegment(frames, n, shortest int, perFrame float64, start func(lo int) float64) []int {
	fit := func(budget int) (cuts []int, ok bool) {
		lo := 0
		for len(cuts) < n {
			room := int((float64(budget) - start(lo)) / perFrame)
			if room < 1 {
				return nil, false
			}
			if lo += room; lo >= frames {
				return cuts, true
			}
			cuts = append(cuts, lo)
		}
		return nil, false
	}
	whole := int(perFrame*float64(frames)+start(0)) + 1
	cuts, _ := fit(sort.Search(whole, func(budget int) bool {
		_, ok := fit(budget)
		return ok
	}))
	for i, lo := range append([]int{0}, cuts...) {
		hi := frames
		if i < len(cuts) {
			hi = cuts[i]
		}
		if hi-lo < shortest || (i > 0 && float64(hi-lo)*perFrame <= start(lo)) {
			return nil
		}
	}
	return cuts
}
