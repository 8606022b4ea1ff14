package plan

import (
	"fmt"
	"sort"
)

// Cost is a static estimate of the physical work a segment (or whole plan)
// performs, in the units the optimizer reasons about: frames pushed through
// the decoder, frames pushed through the encoder, and packets/bytes moved
// by stream copies. It is computed from plan shape and source metadata
// alone — no data values — so it is available before execution and cheap
// enough to compute per request. The admission controller uses Units() as
// the request's weight; EXPLAIN prints it next to each segment so estimate
// vs. actual discrepancies are visible.
type Cost struct {
	// DecodeFrames counts frames decoded from sources or intermediate
	// materializations, roll-forward from the keyframe before a read
	// included.
	DecodeFrames int64 `json:"decode_frames"`
	// EncodeFrames counts frames pushed through an encoder, including
	// intermediate materialization encodes in unoptimized plans.
	EncodeFrames int64 `json:"encode_frames"`
	// CopyPackets and CopyBytes count stream-copied packets and their
	// estimated encoded size.
	CopyPackets int64 `json:"copy_packets"`
	CopyBytes   int64 `json:"copy_bytes"`
}

// Cost-unit weights. One unit is "one frame decoded". Encoding dominates
// decoding in the GV1 codec (quantize + entropy-code vs. dequantize), and
// stream copies move bytes without touching pixel data at all, so a copied
// megabyte is far cheaper than either. Measured in the benchmark's traced
// pass (engine busy time per frame), encode/decode was 2.6–5.6 with
// compress/flate's writer and is 1.8–3.0 with GV1's own; unitsPerEncode
// keeps 4.0 until the filter-cost work re-prices every weight from probes.
const (
	unitsPerDecode  = 1.0
	unitsPerEncode  = 4.0
	unitsPerCopyMiB = 0.25
)

// Add returns the element-wise sum.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		DecodeFrames: c.DecodeFrames + o.DecodeFrames,
		EncodeFrames: c.EncodeFrames + o.EncodeFrames,
		CopyPackets:  c.CopyPackets + o.CopyPackets,
		CopyBytes:    c.CopyBytes + o.CopyBytes,
	}
}

// IsZero reports whether no cost has been estimated.
func (c Cost) IsZero() bool { return c == Cost{} }

// Units collapses the estimate to a single comparable scalar used as the
// admission weight. Always >= 0; a non-empty estimate yields > 0.
func (c Cost) Units() float64 {
	u := float64(c.DecodeFrames)*unitsPerDecode +
		float64(c.EncodeFrames)*unitsPerEncode +
		float64(c.CopyBytes)/(1<<20)*unitsPerCopyMiB
	if u == 0 && c.CopyPackets > 0 {
		// Degenerate source metadata (zero-sized frames) — copying still
		// isn't free.
		u = float64(c.CopyPackets) * 0.001
	}
	return u
}

// String renders the estimate as the annotation EXPLAIN appends.
func (c Cost) String() string {
	return fmt.Sprintf("dec=%d enc=%d copy=%d/%dB units=%.1f",
		c.DecodeFrames, c.EncodeFrames, c.CopyPackets, c.CopyBytes, c.Units())
}

// estCopiedBytesPerPacket estimates the encoded size of one copied packet
// of the named source. The container does not store per-file byte totals
// in check.Source, so this is a shape-based heuristic: pixel bytes (3 B/px)
// over a nominal 8:1 compression ratio. It only needs to be proportional —
// admission compares costs against each other and against a measured
// throughput expressed in the same units.
func estCopiedBytesPerPacket(p *Plan, video string) int64 {
	info := p.Checked.Output
	if src, ok := p.Checked.Sources[video]; ok {
		info = src.Info
	}
	px := int64(info.Width) * int64(info.Height)
	return px * 3 / 8
}

// FrameCost is the cost of one output frame of a frame segment: one source
// decode per tap and one output encode, plus one intermediate encode/decode
// pair per materialized operator boundary (the cost the merge pass removes
// — estimating it here makes the pass's effect visible in EXPLAIN cost
// deltas).
func (s *Segment) FrameCost() Cost {
	if s.Kind != SegFrames || s.Root == nil {
		return Cost{}
	}
	boundaries := int64(0)
	s.Root.Walk(func(n *Node) {
		if n.Materialize {
			boundaries++
		}
	})
	return Cost{
		DecodeFrames: int64(len(s.Taps())) + boundaries,
		EncodeFrames: 1 + boundaries,
	}
}

// RollForward returns, as a function of the output frame i, the source
// frames a worker decodes and discards before it can render i first: a
// fresh cursor starts at the source keyframe at or before each tap's read
// and decodes up to it. It is what a shard starting at i pays on top of
// its frames, and it is exact for taps that do not share a cursor. A
// non-affine tap reads at a place the plan cannot know and is charged half
// its source's nominal GOP.
func (s *Segment) RollForward(p *Plan) func(i int) int64 {
	taps := s.Taps()
	return func(i int) int64 {
		var roll int64
		t := s.Times.At(i)
		for _, tap := range taps {
			src := p.Checked.Sources[tap.Video]
			if !tap.Affine {
				roll += int64(src.Info.GOP / 2)
				continue
			}
			pts, _ := src.Info.PTSOf(t.Add(tap.Off))
			after := sort.Search(len(src.Keyframes), func(k int) bool { return src.Keyframes[k] > pts })
			if after > 0 {
				roll += pts - src.Keyframes[after-1]
			}
		}
		return roll
	}
}

// EstimateCost computes the segment's static cost estimate against the
// plan's source metadata. Kind-specific:
//
//   - copy: every packet in [From,To) moves without re-encoding.
//   - render: FrameCost for every output frame, plus the RollForward of
//     every shard — a mid-GOP read decodes from the keyframe before it, and
//     every cut starts another one.
func (s *Segment) EstimateCost(p *Plan) Cost {
	var c Cost
	switch s.Kind {
	case SegCopy:
		c.CopyPackets = int64(s.To - s.From)
		c.CopyBytes = c.CopyPackets * estCopiedBytesPerPacket(p, s.Video)
	default: // SegFrames
		frames := int64(s.FrameCount())
		if s.Root == nil || frames == 0 {
			break
		}
		per := s.FrameCost()
		c.DecodeFrames = frames * per.DecodeFrames
		c.EncodeFrames = frames * per.EncodeFrames
		roll, bounds := s.RollForward(p), s.Bounds()
		for _, lo := range bounds[:len(bounds)-1] {
			c.DecodeFrames += roll(lo)
		}
	}
	return c
}

// EstimateCosts (re)computes every segment's EstCost in place. Called by
// plan.Build and again by opt.Optimize — segment kinds change between the
// two, and the estimate must reflect the plan that will actually execute.
func EstimateCosts(p *Plan) {
	for _, s := range p.Segments {
		s.EstCost = s.EstimateCost(p)
	}
}

// EstimatedCost returns the plan-wide cost: the sum over segments.
func (p *Plan) EstimatedCost() Cost {
	var total Cost
	for _, s := range p.Segments {
		total = total.Add(s.EstCost)
	}
	return total
}
