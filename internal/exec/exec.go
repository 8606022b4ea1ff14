// Package exec is V2V's execution engine: it runs a plan against the
// sources and writes the output stream.
//
// There is one engine. Every plan, for every sink, runs through the
// presentation-order scheduler in schedule.go: render segments are cut
// into shards at the plan's cuts, each shard renders and encodes on its
// own worker, and a single delivery loop on the caller's goroutine writes
// the finished packets to the sink front to back while later shards are
// still rendering. A buffered run is that scheduler writing to a file
// sink; sequential execution is Parallelism 1.
//
// The engine is deliberately plan-driven and policy-free: whether an
// operator boundary materializes, whether a segment copies packets or
// renders frames, and where a segment is cut into shards are all
// decisions already baked into the plan by the optimizer. Executing an
// unoptimized plan therefore faithfully pays the costs the optimizer
// would have removed.
package exec

import (
	"context"
	"fmt"
	"time"

	"v2v/internal/codec"
	"v2v/internal/container"
	"v2v/internal/data"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/plan"
	"v2v/internal/raster"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

// Process-wide robustness metrics, exported via the default obs registry
// (scraped at v2vserve's /metrics; see docs/OBSERVABILITY.md).
var (
	panicsRecovered = obs.Default().Counter("v2v_panics_recovered_total",
		"Shard worker panics recovered and converted into per-segment errors.")
	transientRetries = obs.Default().Counter("v2v_transient_retries_total",
		"Transient container read errors retried with bounded backoff.")
)

func init() {
	container.OnTransientRetry = transientRetries.Inc
}

// errShardAborted marks a shard stopped by the delivery loop's internal
// abort (a sibling shard already failed, or the sink rejected a write); it
// is never the first error, so callers never see it.
var errShardAborted = fmt.Errorf("exec: shard aborted after prior failure")

// Options configures execution.
type Options struct {
	// Parallelism caps the shard workers rendering at once, across all
	// segments of the run, and with it the rendered-but-undelivered shards
	// held in memory (twice this many). Where segments are cut is the
	// plan's (plan.Segment.Cuts). 1, and any value below it, renders the
	// plan strictly one shard after another; "every core" is the caller's
	// to resolve (core.Options does, for the optimizer and the executor
	// alike).
	Parallelism int
	// Conceal switches the engine from fail-fast to error-concealment
	// mode: a corrupt or undecodable source packet is replaced by holding
	// the last good frame (counted in Metrics and SegmentActuals) instead
	// of failing the synthesis. Structural damage (unreadable header or
	// index) and I/O failures remain fatal in both modes.
	Conceal bool
	// Cache, when non-nil, is the store every shard worker reads through
	// and result-caches into, for each kind it holds. Decoded GOPs:
	// concurrent taps of the same source GOP decode it once and share the
	// frames. Encoded results, keyed by canonical plan fingerprint + source
	// content identity (plan.Fingerprinter): a repeated or overlapping
	// query splices the cached packets as a stream copy — zero source
	// decodes, zero frame encodes. The same cache may be (and in v2vserve
	// is) shared across concurrent ExecuteTo calls. Nil disables caching.
	Cache *media.Cache
	// Trace, when set, receives the execution's events: one for the
	// execute node, one per segment and one per shard worker, each shard
	// on its own track. Unset, they go to Recorder's trace, if it has one.
	Trace *obs.Trace
	// Recorder, when set, is the node the execution opens its own under;
	// v2vserve passes each request's root here. The execute node has one
	// child per segment and each segment one per shard, and Metrics and
	// SegmentActuals are read from those; whatever they count also counts
	// toward Recorder. The process-wide v2v_stage_* metrics are updated
	// either way.
	Recorder *obs.Recorder
}

// Counts is one share of a plan execution's work; a count the share
// cannot have stays zero.
type Counts struct {
	FramesDecoded, FramesEncoded, PacketsCopied, BytesCopied int64
	FramesConcealed, GOPCacheHits, GOPCacheMisses            int64
}

// Metrics reports the work a plan execution performed.
type Metrics struct {
	Wall time.Duration
	// FirstOutput is the latency until the first output packet was
	// written to the sink — the paper's interactivity measure ("begin
	// playback within seconds"). Stream copies make this near-instant.
	FirstOutput time.Duration
	// Work is the run recorder's account of the execution; Source,
	// Intermediate and Output split its decodes, encodes and copies by
	// where they happened.
	obs.Work
	// Source counts frames decoded from input files, the corrupt ones
	// concealed, and the GOP-cache lookups made reading them.
	Source Counts
	// Intermediate counts the encode/decode pairs spent materializing
	// operator boundaries (unoptimized plans only).
	Intermediate Counts
	// Output counts frames encoded into / packets copied into the output.
	Output Counts
	// FramesRendered is the number of output frames produced by render
	// segments (copied packets excluded).
	FramesRendered int64
	// Segments holds per-segment measured costs, index-aligned with the
	// executed plan's segments — the data behind EXPLAIN ANALYZE.
	Segments []obs.SegmentActuals
	// GOPCache and ResultCache snapshot the shared cache's cumulative
	// stats (occupancy, share, totals) per kind at the end of the run; nil
	// when the cache does not hold that kind.
	GOPCache    *media.CacheStats
	ResultCache *media.CacheStats
}

// TotalEncodes counts every frame encode performed anywhere in the plan.
func (m *Metrics) TotalEncodes() int64 { return m.FramesEncoded + m.Materialized }

// TotalDecodes counts every frame decode performed anywhere in the plan.
func (m *Metrics) TotalDecodes() int64 { return m.FramesDecoded }

// TotalConcealed counts every concealed frame anywhere in the plan —
// non-zero only in concealment mode on damaged inputs.
func (m *Metrics) TotalConcealed() int64 { return m.Concealed }

// Execute runs the plan and writes the synthesized video to outPath. On
// error (including cancellation) the partial output is discarded: nothing
// is ever left at outPath.
func Execute(ctx context.Context, p *plan.Plan, outPath string, o Options) (*Metrics, error) {
	info := p.Checked.Output
	info.Start = rational.Zero
	w, err := media.CreateWriter(outPath, info)
	if err != nil {
		return nil, err
	}
	return ExecuteTo(ctx, p, w, o)
}

// ExecuteTo runs the plan against an arbitrary packet sink (a VMF file
// writer or a progressive stream) and closes the sink. Packets reach the
// sink in presentation order as their shards finish them, and the sink is
// flushed once before the first segment (the container header is out) and
// after each segment's last packet, so a streaming consumer starts
// receiving output while later segments are still rendering.
//
// Cancellation is cooperative: ctx is checked before every segment and at
// every publish interval inside every shard worker — one output GOP, or
// one second of output where the GOP is longer — so a cancelled synthesis
// stops within that much work per goroutine. On any failure the sink is
// aborted, not closed — a file sink leaves nothing at its target path.
func ExecuteTo(ctx context.Context, p *plan.Plan, w media.Sink, o Options) (*Metrics, error) {
	start := time.Now()
	m := &Metrics{}
	o.Parallelism = max(o.Parallelism, 1)
	readers := newReaderCache(p, o.Conceal)
	defer readers.closeAll()

	node := o.Recorder.Child("execute").Bind(o.Trace)
	defer node.End()
	// The container header went out when the sink was constructed; give a
	// streaming consumer its first delivery point now.
	w.Flush()
	x := &run{p: p, o: o, m: m, rec: node, readers: readers, w: w}
	if err := x.execute(ctx); err != nil {
		// Prefer the context's error when cancellation is what stopped us,
		// so callers can match context.Canceled / DeadlineExceeded.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		node.SetAttr("error", err.Error())
		// A stream sink whose header is already on the wire writes a typed
		// error trailer (best-effort) so the consumer can tell a producer
		// failure from a cut connection; a file sink discards its temp file.
		w.Abort(err)
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	m.Work = x.rec.Work()
	m.Source = Counts{FramesDecoded: m.FramesDecoded - m.Materialized, FramesConcealed: m.Concealed,
		GOPCacheHits: m.GOPCacheHits, GOPCacheMisses: m.GOPCacheMisses}
	m.Intermediate = Counts{FramesEncoded: m.Materialized, FramesDecoded: m.Materialized}
	m.Output = Counts{FramesEncoded: m.FramesEncoded, PacketsCopied: m.PacketsCopied, BytesCopied: m.BytesCopied}
	if first := w.FirstPacket(); !first.IsZero() {
		m.FirstOutput = first.Sub(start)
	}
	if o.Cache.Holds(media.KindGOP) {
		s := o.Cache.Stats(media.KindGOP)
		m.GOPCache = &s
	}
	if o.Cache.Holds(media.KindResult) {
		s := o.Cache.Stats(media.KindResult)
		m.ResultCache = &s
	}
	m.Wall = time.Since(start)
	node.SetAttr("segments", len(p.Segments))
	node.SetAttr("first_output_us", m.FirstOutput.Microseconds())
	return m, nil
}

// readerCache shares sequential readers across the segments that read a
// source on the delivery goroutine (copies). It is touched by that
// goroutine only.
type readerCache struct {
	p       *plan.Plan
	conceal bool
	rs      map[string]*media.Reader
}

func newReaderCache(p *plan.Plan, conceal bool) *readerCache {
	return &readerCache{p: p, conceal: conceal, rs: map[string]*media.Reader{}}
}

// get returns the shared reader for video, opening it on first use, and
// points its stage accounting at rec — the recorder of the segment about
// to read through it.
func (c *readerCache) get(video string, rec *obs.Recorder) (*media.Reader, error) {
	r, ok := c.rs[video]
	if !ok {
		src, ok := c.p.Checked.Sources[video]
		if !ok {
			return nil, fmt.Errorf("exec: unknown video %q", video)
		}
		var err error
		if r, err = media.OpenReader(src.Path); err != nil {
			return nil, err
		}
		r.SetConceal(c.conceal)
		c.rs[video] = r
	}
	r.SetRecorder(rec)
	return r, nil
}

func (c *readerCache) closeAll() {
	for _, r := range c.rs {
		r.Close()
	}
}

// segmentRunner executes one segment's operator tree for one goroutine.
//
// Frame ownership: every frame a nodeRunner returns is owned by its caller,
// which must Release it when done (Release is a no-op on unpooled frames,
// so the discipline is universal). Pooled frames originate in audited
// paths — source frames from the cursors (every read hands out a reference
// of its own), transform destinations from alloc, fused kernel outputs,
// the output-scaling destination, and the materialize decoder. A source
// frame an expression taps directly, not through a leaf node, and every
// destination alloc hands a transform are owned by the runner (taps) until
// the node that evaluated the expression releases its inputs.
type segmentRunner struct {
	p       *plan.Plan
	seg     *plan.Segment
	cursors *media.Cursors
	data    data.Arrays
	rec     *obs.Recorder
	pool    *frame.Pool
	root    *nodeRunner
	taps    []*frame.Frame // source frames and destinations of the expression being evaluated
}

// newSegmentRunner builds a runner whose cursors read through cache; a
// read waiting on another runner's fill of a GOP gives up when ctx ends.
func newSegmentRunner(ctx context.Context, p *plan.Plan, s *plan.Segment, conceal bool, cache *media.Cache, rec *obs.Recorder) *segmentRunner {
	paths := make(map[string]string, len(p.Checked.Sources))
	for name, src := range p.Checked.Sources {
		paths[name] = src.Path
	}
	run := &segmentRunner{
		p: p, seg: s,
		cursors: media.NewCursors(paths, 0),
		data:    p.Checked.Arrays,
		rec:     rec,
		pool:    frame.DefaultPool(),
	}
	run.cursors.SetConceal(conceal)
	run.cursors.SetRecorder(rec)
	run.cursors.SetCache(ctx, cache)
	run.root = run.buildRunner(s.Root)
	return run
}

// close releases the runner's readers and codecs.
func (r *segmentRunner) close() {
	r.cursors.Close()
	r.root.walk(func(nr *nodeRunner) {
		if nr.dec != nil {
			nr.dec.Reset() // release the pooled prediction frame
			nr.enc.Close()
		}
	})
}

// SourceFrame implements vql.FrameSource for reads made inside an
// expression; the runner keeps the reference until releaseInputs.
func (r *segmentRunner) SourceFrame(video string, t rational.Rat) (*frame.Frame, error) {
	fr, err := r.cursors.FrameAt(video, t)
	if err == nil {
		r.taps = append(r.taps, fr)
	}
	return fr, err
}

// alloc is the vql.Alloc of every node: a pooled destination the runner
// holds, like a tap, until releaseInputs keeps the frame that travels up
// and returns the intermediates of a merged expression to the pool.
func (r *segmentRunner) alloc(w, h int) *frame.Frame {
	fr := r.pool.Get(w, h, frame.FormatYUV420)
	r.taps = append(r.taps, fr)
	return fr
}

// renderAt produces the output frame for time t, scaling to the output
// format when the rendered frame differs. Panics from transform internals
// (UDFs, raster precondition violations on data-driven arguments) are
// converted to errors so one bad frame fails the run instead of crashing
// the process.
func (r *segmentRunner) renderAt(t rational.Rat) (fr *frame.Frame, err error) {
	defer func() {
		if p := recover(); p != nil {
			fr, err = nil, fmt.Errorf("exec: render t=%s panicked: %v", t, p)
		}
	}()
	fr, err = r.root.renderAt(t)
	if err != nil {
		return nil, err
	}
	out := r.p.Checked.Output
	if fr.W != out.Width || fr.H != out.Height {
		scaleStart := time.Now()
		scaled := r.pool.Get(out.Width, out.Height, frame.FormatYUV420)
		raster.ScaleInto(scaled, fr)
		fr.Release()
		fr = scaled
		r.rec.StageObserve(obs.StageFilter, 1, int64(len(fr.Pix)), time.Since(scaleStart))
	}
	return fr, nil
}

// nodeRunner carries per-node execution state: the intermediate codec pair
// for materialized boundaries, the rendered child frames, the reusable
// evaluation environment, and a fused node's per-frame kernel scratch.
type nodeRunner struct {
	run      *segmentRunner
	node     *plan.Node
	children []*nodeRunner
	frames   []*frame.Frame // children's frames for the current time
	env      vql.Env        // reused across frames; only T changes per frame

	// Fused-kernel state: each stage's transform, the evaluated arguments
	// of the stage being prepared, and the kernels of the current frame.
	stages []*vql.Transform
	args   []vql.Val
	ops    []raster.PointOp

	enc        *codec.Encoder
	dec        *codec.Decoder
	matW, matH int
}

func (r *segmentRunner) buildRunner(n *plan.Node) *nodeRunner {
	nr := &nodeRunner{run: r, node: n}
	for _, in := range n.Inputs {
		nr.children = append(nr.children, r.buildRunner(in))
	}
	nr.frames = make([]*frame.Frame, len(nr.children))
	// One environment per node, reused for every frame: the Ext closure
	// resolving ports is allocated once here instead of per render call.
	nr.env = vql.Env{
		Frames: r,
		Data:   r.data,
		Alloc:  r.alloc,
		Ext: func(e vql.Expr, _ *vql.Env) (vql.Val, bool, error) {
			if p, ok := e.(plan.PortRef); ok {
				if p.Port < 0 || p.Port >= len(nr.frames) {
					return vql.Val{}, true, fmt.Errorf("exec: port %d out of range", p.Port)
				}
				return vql.FrameVal(nr.frames[p.Port]), true, nil
			}
			return vql.Val{}, false, nil
		},
	}
	arity := 0
	for _, st := range n.Fused {
		tr, _ := vql.Lookup(st.Op) // the optimizer fuses only transforms with a PointOp
		nr.stages = append(nr.stages, tr)
		arity = max(arity, len(st.Args))
	}
	nr.args = make([]vql.Val, arity)
	nr.ops = make([]raster.PointOp, len(n.Fused))
	return nr
}

func (nr *nodeRunner) walk(visit func(*nodeRunner)) {
	visit(nr)
	for _, c := range nr.children {
		c.walk(visit)
	}
}

// releaseFrames drops the reference each entry of frames holds — every
// entry is one, even when two are the same frame (two taps of one source
// time) — except one that moves to result, the frame being passed up,
// which may alias an input on passthrough transforms and zero-copy Scale.
// It returns result, or nil once result has its reference. Entries are
// cleared so stale pointers never outlive the call.
func releaseFrames(frames []*frame.Frame, result *frame.Frame) *frame.Frame {
	for i, fr := range frames {
		if fr == result {
			result = nil
		} else {
			fr.Release()
		}
		frames[i] = nil
	}
	return result
}

// releaseInputs releases the children's frames and the source frames the
// node's expression tapped, except the reference that travels up as result.
func (nr *nodeRunner) releaseInputs(result *frame.Frame) {
	releaseFrames(nr.run.taps, releaseFrames(nr.frames, result))
	nr.run.taps = nr.run.taps[:0]
}

// renderChildren renders every child for time t into nr.frames. On error
// the already-rendered prefix is released.
func (nr *nodeRunner) renderChildren(t rational.Rat) error {
	for i, c := range nr.children {
		cf, err := c.renderAt(t)
		if err != nil {
			releaseFrames(nr.frames[:i], nil)
			return err
		}
		nr.frames[i] = cf
	}
	return nil
}

func (nr *nodeRunner) renderAt(t rational.Rat) (*frame.Frame, error) {
	var fr *frame.Frame
	switch {
	case nr.node.IsLeaf():
		nr.env.T = t
		idx, err := vql.Eval(nr.node.Clip.Index, &nr.env)
		if err != nil {
			return nil, fmt.Errorf("exec: clip index: %w", err)
		}
		fr, err = nr.run.cursors.FrameAt(nr.node.Clip.Video, idx.Num)
		if err != nil {
			return nil, err
		}
	case nr.node.Fused != nil:
		var err error
		fr, err = nr.renderFused(t)
		if err != nil {
			return nil, err
		}
	default:
		if err := nr.renderChildren(t); err != nil {
			return nil, err
		}
		nr.env.T = t
		// Filter-stage wall covers the expression evaluation (raster
		// transforms, composition); any source taps the expression reads
		// directly are separately counted under the decode stage.
		fltStart := time.Now()
		v, err := vql.Eval(nr.node.Expr, &nr.env)
		if err != nil {
			nr.releaseInputs(nil)
			return nil, fmt.Errorf("exec: filter %s at t=%s: %w", nr.node.Expr, t, err)
		}
		if v.Type != vql.TypeFrame || v.Frame == nil {
			nr.releaseInputs(nil)
			return nil, fmt.Errorf("exec: filter %s produced %v, want a frame", nr.node.Expr, v.Type)
		}
		fr = v.Frame
		// The result is a destination alloc handed out, or an input passed
		// through (identity-parameter ops); releaseInputs keeps it.
		nr.releaseInputs(fr)
		nr.run.rec.StageObserve(obs.StageFilter, 1, int64(len(fr.Pix)), time.Since(fltStart))
	}
	if !nr.node.Materialize {
		return fr, nil
	}
	return nr.materialize(fr)
}

// renderFused executes a fused kernel node: children render once, each
// stage's arguments evaluate with vql.Eval (the chain input is the base
// frame, whose shape every stage keeps) and its transform's PointOp builds
// the kernel, and raster.ApplyFused makes a single pass over the planes
// into a pooled destination — one traversal for the whole chain,
// byte-identical to evaluating the ops one by one.
//
//v2v:hotpath
func (nr *nodeRunner) renderFused(t rational.Rat) (*frame.Frame, error) {
	if err := nr.renderChildren(t); err != nil {
		return nil, err
	}
	base := nr.frames[0]
	fltStart := time.Now()
	nr.env.T = t
	for i, st := range nr.node.Fused {
		args := nr.args[:len(st.Args)]
		args[0] = vql.FrameVal(base)
		var err error
		for j := 1; j < len(args) && err == nil; j++ {
			args[j], err = vql.Eval(st.Args[j], &nr.env)
		}
		if err == nil {
			nr.ops[i], err = nr.stages[i].PointOp(args)
		}
		if err != nil {
			nr.releaseInputs(nil)
			return nil, fmt.Errorf("exec: fused %s at t=%s: %w", st.Op, t, err) //v2v:nolint(hotpath) cold error path; allocates only when a stage rejects its arguments
		}
	}
	dst := nr.run.pool.Get(base.W, base.H, base.Format)
	raster.ApplyFused(dst, base, nr.ops)
	// dst comes from the pool, so it never aliases an input frame.
	nr.releaseInputs(nil)
	nr.run.rec.StageObserve(obs.StageFilter, 1, int64(len(dst.Pix)), time.Since(fltStart))
	return dst, nil
}

// materialize round-trips the frame through the node's intermediate codec
// pair, paying the cost of an operator boundary that writes its result as
// an encoded stream for the next operator to decode.
func (nr *nodeRunner) materialize(fr *frame.Frame) (*frame.Frame, error) {
	if nr.enc == nil || nr.matW != fr.W || nr.matH != fr.H {
		cfg, err := media.CodecConfig(nr.run.p.Checked.Output)
		if err != nil {
			fr.Release()
			return nil, err
		}
		cfg.Width, cfg.Height = fr.W, fr.H
		enc, err := codec.NewEncoder(cfg)
		if err != nil {
			fr.Release()
			return nil, err
		}
		dec, err := codec.NewDecoder(cfg)
		if err != nil {
			fr.Release()
			return nil, err
		}
		enc.SetRecorder(nr.run.rec)
		dec.SetRecorder(nr.run.rec)
		dec.SetFramePool(nr.run.pool)
		nr.enc, nr.dec, nr.matW, nr.matH = enc, dec, fr.W, fr.H
	}
	pkt, err := nr.enc.Encode(fr)
	// The input frame is consumed by the boundary either way: its pixels
	// now live in the encoded packet (or the error abandons them).
	fr.Release()
	if err != nil {
		return nil, fmt.Errorf("exec: materialize encode: %w", err)
	}
	got, err := nr.dec.Decode(pkt.Data)
	nr.enc.Recycle(pkt) // Decode fully consumed the bytes; reuse the buffer
	if err != nil {
		return nil, fmt.Errorf("exec: materialize decode: %w", err)
	}
	nr.run.rec.Inc(obs.EventMaterialized)
	return got, nil
}
