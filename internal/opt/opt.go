// Package opt implements V2V's heuristic plan optimizer (§III-D): operator
// merging (clip pushdown into filters), stream copying, smart cuts, and
// temporal sharding for parallel execution. Like a relational optimizer it
// rewrites plans without consulting data values — data-aware improvements
// happen earlier, in the spec-level data-dependent rewriter.
package opt

import (
	"fmt"

	"v2v/internal/container"
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
	// FuseKernels collapses chains of fusable per-pixel point ops (grade,
	// crossfade, wipe, overlay) into single fused kernel nodes executed in
	// one pass over the planes. Requires MergeFilters (fusion operates on
	// the merged expressions).
	FuseKernels bool
	// StreamCopy converts keyframe-aligned plain clips into packet copies
	// (passthrough plans only).
	StreamCopy bool
	// SmartCut converts unaligned plain clips into smart cuts
	// (passthrough plans only).
	SmartCut bool
	// Shard splits long render segments into parallel shards.
	Shard bool
	// Parallelism bounds shard fan-out: the number the executor will run
	// with (core.Options resolves both). Below 2 means no sharding.
	Parallelism int
	// Trace, when set, records one span per optimizer pass.
	Trace *obs.Trace
}

// Default returns the full optimizer configuration.
func Default() Options {
	return Options{
		MergeSegments: true,
		MergeFilters:  true,
		FuseKernels:   true,
		StreamCopy:    true,
		SmartCut:      true,
		Shard:         true,
	}
}

// Stats reports what each pass did.
type Stats struct {
	SegmentsMerged int
	FiltersMerged  int // operator boundaries (materializations) removed
	KernelsFused   int // point ops folded into fused kernel nodes
	Copies         int
	SmartCuts      int
	ShardedSegs    int
}

// Optimize rewrites p in place and returns pass statistics.
func Optimize(p *plan.Plan, o Options) (Stats, error) {
	var st Stats
	if o.MergeSegments {
		sp := o.Trace.StartSpan("opt.merge_segments")
		st.SegmentsMerged = mergeSegments(p)
		sp.SetAttr("merged", st.SegmentsMerged)
		sp.End()
	}
	if o.MergeFilters {
		sp := o.Trace.StartSpan("opt.merge_filters")
		st.FiltersMerged = mergeFilters(p)
		sp.SetAttr("boundaries_removed", st.FiltersMerged)
		sp.End()
	}
	if o.FuseKernels && o.MergeFilters {
		sp := o.Trace.StartSpan("opt.fuse_kernels")
		st.KernelsFused = fusePass(p)
		sp.SetAttr("ops_fused", st.KernelsFused)
		sp.End()
	}
	if (o.StreamCopy || o.SmartCut) && p.Checked.Passthrough {
		sp := o.Trace.StartSpan("opt.copy")
		n, err := copyPass(p, o)
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			return st, err
		}
		st.Copies, st.SmartCuts = n.copies, n.smartcuts
		sp.SetAttr("copies", n.copies)
		sp.SetAttr("smart_cuts", n.smartcuts)
		sp.End()
	}
	if o.Shard {
		sp := o.Trace.StartSpan("opt.shard")
		st.ShardedSegs = shardPass(p, o.Parallelism)
		sp.SetAttr("sharded", st.ShardedSegs)
		sp.End()
	}
	p.Optimized = true
	// Segment kinds and operator boundaries changed above — re-estimate so
	// admission weights and EXPLAIN reflect the plan that executes.
	plan.EstimateCosts(p)
	p.Notes = append(p.Notes, fmt.Sprintf(
		"opt: merged %d segments, removed %d op boundaries, fused %d point ops, %d copies, %d smart cuts, %d sharded",
		st.SegmentsMerged, st.FiltersMerged, st.KernelsFused, st.Copies, st.SmartCuts, st.ShardedSegs))
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

// copyPass converts plain-clip segments into packet copies or smart cuts.
// It opens each referenced container once to consult its keyframe index.
func copyPass(p *plan.Plan, o Options) (copyCounts, error) {
	var n copyCounts
	readers := map[string]*container.Reader{}
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	reader := func(video string) (*container.Reader, error) {
		if r, ok := readers[video]; ok {
			return r, nil
		}
		src, ok := p.Checked.Sources[video]
		if !ok {
			return nil, fmt.Errorf("opt: unknown video %q", video)
		}
		r, err := container.Open(src.Path)
		if err != nil {
			return nil, err
		}
		readers[video] = r
		return r, nil
	}

	for _, s := range p.Segments {
		video, off, ok := s.PlainClip()
		if !ok || s.Times.Count() == 0 {
			continue
		}
		r, err := reader(video)
		if err != nil {
			return n, err
		}
		info := r.Info()
		srcStart := s.Times.Start.Add(off)
		pts, exact := info.PTSOf(srcStart)
		if !exact {
			continue // should not happen post-check; stay safe
		}
		i0, found := r.IndexOfPTS(pts)
		if !found {
			continue
		}
		i1 := i0 + s.Times.Count()
		if i1 > r.NumPackets() {
			continue
		}
		if r.Record(i0).Key {
			if !o.StreamCopy {
				continue
			}
			s.Kind = plan.SegCopy
			s.ReencodeHead = 0
			n.copies++
		} else {
			if !o.SmartCut {
				continue
			}
			// A smart cut only pays off if some keyframe lies inside the
			// range; otherwise the whole range re-encodes anyway (the
			// paper's Q1-on-ToS case, where plans were identical).
			k, ok := r.NextKeyframeAfter(i0)
			if !ok || k >= i1 {
				continue
			}
			s.Kind = plan.SegSmartCut
			s.ReencodeHead = k - i0
			n.smartcuts++
		}
		s.Video = video
		s.From, s.To = i0, i1
		s.Root = nil
		s.Shards = 1
	}
	return n, nil
}

// shardPass splits render segments into parallel shards at output-GOP
// granularity.
func shardPass(p *plan.Plan, parallelism int) int {
	if parallelism <= 1 {
		return 0
	}
	gop := p.Checked.Output.GOP
	if gop <= 0 {
		gop = 48
	}
	sharded := 0
	for _, s := range p.Segments {
		if s.Kind != plan.SegFrames {
			continue
		}
		frames := s.FrameCount()
		if frames < 2*gop {
			continue
		}
		shards := frames / gop
		if shards > parallelism {
			shards = parallelism
		}
		if shards > 1 {
			s.Shards = shards
			// A filtered single-source render can additionally align its
			// shard boundaries to the source's keyframe grid, so no shard
			// starts decoding mid-GOP (the executor consumes the hint).
			if video, off, ok := s.SoleSource(); ok {
				s.AlignVideo, s.AlignOff = video, off
			}
			sharded++
		}
	}
	return sharded
}
