package exec

// This file is the engine's scheduler: presentation-order execution with
// bounded lookahead, for every plan and every sink.
//
// Each plan segment becomes one unit. A render unit is cut into shards
// where the plan says (plan.Segment.Bounds — the optimizer's decision;
// Parallelism only caps how many render at once); a shard is one worker
// goroutine with one segmentRunner and one fresh encoder over its frame
// range, so it starts on a keyframe and its bytes depend only on its
// content — never on what the sink wrote before it, on which other shards
// ran beside it, or on whether a cache was involved.
//
// A scheduler goroutine starts shard workers strictly in presentation
// order, bounded by two token pools: a parallelism semaphore (CPU) and a
// delivery window (memory: how many started, not yet delivered shards may
// exist). A worker publishes its packets every publish interval (one
// output GOP, or one second of output where the GOP is longer) and looks
// for cancellation there. The delivery loop, on the caller's goroutine,
// drains the shards in the same order and writes each batch to the sink
// the moment it lands, so the head of the output reaches the consumer
// while the tail is still rendering. Copy units run inline on the delivery
// goroutine at their turn, reading the source through the shared readers.
// The head a smart cut re-encodes is a render unit like any other, so the
// heads of a splice render on the workers while the loop copies the tails.
//
// A cacheable render unit resolves through the result cache first: a hit
// splices the cached packets at the unit's turn; a miss renders through
// the same shard workers under the same tokens, and fills the cache once
// the workers finish — when they finish, not when the sink has taken the
// packets, so a slow consumer never holds up another request waiting on
// the same key.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"v2v/internal/codec"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/plan"
)

// run is the state of one ExecuteTo call.
type run struct {
	p *plan.Plan
	o Options // Parallelism already resolved
	m *Metrics
	// rec is the run's execute node, a child of Options.Recorder: the one
	// account of its work, which Metrics is read from.
	rec     *obs.Recorder
	readers *readerCache
	w       media.Sink // the caller's sink; delivery goroutine only
	// every is the plan's publish interval in frames: a worker hands over
	// its packets and polls ctx and abort this often, so a long-GOP render
	// streams and cancels by the second, not by the shard.
	every int

	// sem caps rendering workers; window caps started but undelivered
	// shards (each holds at most its own encoded packets). Twice the
	// parallelism keeps workers busy while delivery catches up without
	// letting a slow consumer buffer the whole tail.
	sem, window chan struct{}
	// abort stops workers whose output can no longer be used: the sink
	// failed or an earlier shard did. A channel rather than a derived
	// context: cancellation must also honor caller contexts that
	// implement Err() directly.
	abort chan struct{}
	// err is the run's first error; delivery goroutine only.
	err error
	// bg joins the scheduler and the result-cache resolvers.
	bg sync.WaitGroup
}

// unit is one plan segment prepared for execution, on the caller goroutine
// before any worker starts.
type unit struct {
	idx int
	s   *plan.Segment
	// rec is the segment's node, a child of the run's: everything
	// rendered, read or written for this segment records its work here.
	rec *obs.Recorder
	// shards is the unit's render work in presentation order; empty for
	// copy units and for segments with no frames.
	shards   []*shard
	rendered sync.WaitGroup // the shards' workers

	// Result-cache resolution of a cacheable render unit (key != "").
	// decided closes once the outcome is known: seg is the hit's packets,
	// err a failed wait, and neither means a miss — render the shards.
	key     string
	decided chan struct{}
	seg     *media.ResultSegment
	err     error
}

// shard is one worker's share of a render unit: output frames [lo, hi).
type shard struct {
	lo, hi int
	// out carries the finished packets to the delivery loop in order, one
	// batch per publish interval. It is buffered for every batch the worker
	// will send, so a worker never waits on the sink, and closed when the
	// worker exits or the scheduler gives the shard up unstarted.
	out chan []codec.Packet
	// started records that the shard holds a delivery-window token; set by
	// the scheduler before the worker starts.
	started bool
	// rec is the shard's node, a child of the unit's on a track of its
	// own, opened by the worker when it starts; nil if it never started.
	rec *obs.Recorder

	// Results, written before out closes and rendered is released. pkts
	// keeps every packet for a result-cache fill; they are retained until
	// delivery (and possibly aliased into the cache), so never Recycled.
	pkts []codec.Packet
	err  error
}

// execute runs the whole plan: builds the units, starts the scheduler and
// delivers. It returns the first error, after every goroutine it started
// has exited.
func (x *run) execute(ctx context.Context) error {
	x.every = x.p.PublishInterval()
	par := x.o.Parallelism
	x.sem = make(chan struct{}, par)
	x.window = make(chan struct{}, 2*par)
	x.abort = make(chan struct{})
	units := x.buildUnits()

	x.bg.Add(1)
	go x.schedule(ctx, units)
	for _, u := range units {
		x.fail(ctx.Err())
		x.deliver(u)
	}
	x.bg.Wait()
	return x.err
}

// fail records the run's first error and aborts the workers. Delivery
// goroutine only.
func (x *run) fail(err error) {
	if err != nil && x.err == nil {
		x.err = err
		close(x.abort)
	}
}

func (x *run) buildUnits() []*unit {
	// One fingerprinter per run: it hashes the data arrays once and every
	// cacheable segment derives its key from it.
	var fp *plan.Fingerprinter
	if x.o.Cache.Holds(media.KindResult) {
		fp = plan.NewFingerprinter(x.p.Checked, x.o.Conceal)
	}
	units := make([]*unit, len(x.p.Segments))
	for i, s := range x.p.Segments {
		u := &unit{idx: i, s: s, rec: x.rec.Child(fmt.Sprintf("segment[%d] %s", i, s.Kind))}
		u.rec.SetAttr("kind", s.Kind.String())
		u.rec.SetAttr("t_start", s.Times.Start.String())
		u.rec.SetAttr("t_end", s.Times.End.String())
		units[i] = u
		if s.Kind != plan.SegFrames || s.FrameCount() == 0 {
			continue
		}
		bounds := s.Bounds()
		for bi, lo := range bounds[:len(bounds)-1] {
			hi := bounds[bi+1]
			u.shards = append(u.shards, &shard{
				lo: lo, hi: hi,
				out: make(chan []codec.Packet, (hi-lo+x.every-1)/x.every),
			})
		}
		u.rendered.Add(len(u.shards))
		if fp != nil {
			if key, ok := fp.Segment(s); ok {
				u.key, u.decided = key, make(chan struct{})
			}
		}
	}
	return units
}

// schedule starts the units' workers in presentation order. When the run
// aborts it gives up everything not yet started, so the delivery loop's
// drain completes immediately.
func (x *run) schedule(ctx context.Context, units []*unit) {
	defer x.bg.Done()
	for ui, u := range units {
		if x.start(ctx, u) {
			continue
		}
		for _, rest := range units[ui+1:] {
			if rest.key != "" {
				rest.err = errShardAborted
				close(rest.decided)
			}
			rest.giveUp(0)
		}
		return
	}
}

// start resolves u through the result cache if it is cacheable and, unless
// that was a hit, starts its shard workers. It reports false if the run
// aborted first, having given up u's unstarted shards.
func (x *run) start(ctx context.Context, u *unit) bool {
	if u.key != "" {
		x.bg.Add(1)
		go x.resolve(ctx, u)
		select {
		case <-u.decided:
			if u.seg != nil || u.err != nil {
				return true
			}
		case <-x.abort:
			u.giveUp(0)
			return false
		case <-ctx.Done():
			u.giveUp(0)
			return false
		}
	}
	for i, sh := range u.shards {
		if !x.acquire() {
			u.giveUp(i)
			return false
		}
		sh.started = true
		go x.render(ctx, u, sh)
	}
	return true
}

// acquire takes one delivery-window token then one parallelism token,
// restoring the window token if the run aborts while waiting.
func (x *run) acquire() bool {
	select {
	case x.window <- struct{}{}:
	case <-x.abort:
		return false
	}
	select {
	case x.sem <- struct{}{}:
		return true
	case <-x.abort:
		<-x.window
		return false
	}
}

// giveUp marks the shards from index i on as aborted without starting
// them. They hold no window token.
func (u *unit) giveUp(i int) {
	for _, sh := range u.shards[i:] {
		sh.err = errShardAborted
		close(sh.out)
		u.rendered.Done()
	}
}

// resolve looks u up in the result cache. Concurrent executions of one key
// collapse singleflight-style: one renders and fills, the others wait and
// splice its packets.
func (x *run) resolve(ctx context.Context, u *unit) {
	defer x.bg.Done()
	// miss tells the scheduler to render u's shards, waits for the workers
	// and collects their packets; the delivery loop drains the same shards
	// at its own pace.
	miss := func() (*media.ResultSegment, error) {
		close(u.decided)
		u.rendered.Wait()
		var pkts []media.EncodedPacket
		for _, sh := range u.shards {
			if sh.err != nil {
				return nil, sh.err
			}
			for _, pkt := range sh.pkts {
				pkts = append(pkts, media.EncodedPacket(pkt))
			}
		}
		return media.NewResultSegment(pkts), nil
	}
	seg, _, filled, err := x.o.Cache.Result(ctx, u.key, miss)
	switch {
	case filled:
		// The delivery loop reports the shards' errors itself.
	case err != nil && ctx.Err() == nil:
		// A concurrent request's fill failed; its error (possibly its own
		// cancellation) is not ours. Render directly, uncached.
		miss()
	default:
		u.seg, u.err = seg, err
		close(u.decided)
	}
}

// render is a shard worker: it renders sh's frames through a fresh segment
// runner, encodes them with a fresh encoder and publishes the packets
// every publish interval. It honors ctx and the run's abort at the same
// points and never touches the sink.
func (x *run) render(ctx context.Context, u *unit, sh *shard) {
	defer func() { <-x.sem }() // frees this worker's own buffered semaphore slot; never blocks
	defer u.rendered.Done()
	defer close(sh.out)
	sh.rec = u.rec.Track(fmt.Sprintf("shard[%d,%d)", sh.lo, sh.hi))
	defer func() {
		if sh.err != nil {
			sh.rec.SetAttr("error", sh.err.Error())
		}
		sh.rec.End()
	}()
	// Isolate the worker: a panic anywhere in this goroutine (runner
	// construction, encoder setup) would crash the whole process since no
	// caller frame can recover across a `go`. Convert it to a per-segment
	// error instead. renderAt has its own recover for transform panics;
	// this is the backstop for everything else.
	defer func() {
		if r := recover(); r != nil {
			panicsRecovered.Inc()
			sh.err = fmt.Errorf("exec: shard [%d,%d) panicked: %v", sh.lo, sh.hi, r)
		}
	}()
	runner := newSegmentRunner(ctx, x.p, u.s, x.o.Conceal, x.o.Cache, sh.rec)
	defer runner.close()
	cfg, err := media.CodecConfig(x.p.Checked.Output)
	if err != nil {
		sh.err = err
		return
	}
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		sh.err = err
		return
	}
	defer enc.Close()
	enc.SetRecorder(sh.rec)
	sh.pkts = make([]codec.Packet, 0, sh.hi-sh.lo)
	sent := 0
	publish := func() {
		if n := len(sh.pkts); n > sent {
			sh.out <- sh.pkts[sent:n:n] // out is buffered for one send per GOP of the shard; never blocks
			sent = n
		}
	}
	defer publish()
	for i := sh.lo; i < sh.hi; i++ {
		if (i-sh.lo)%x.every == 0 {
			publish()
			if sh.err = ctx.Err(); sh.err != nil {
				return
			}
			select {
			case <-x.abort:
				sh.err = errShardAborted
				return
			default:
			}
		}
		fr, err := runner.renderAt(u.s.Times.At(i))
		if err != nil {
			sh.err = err
			return
		}
		pkt, err := enc.Encode(fr)
		fr.Release() // the packet holds its own copy of the pixels
		if err != nil {
			sh.err = err
			return
		}
		sh.pkts = append(sh.pkts, pkt)
	}
}

// deliver hands unit u's output to the sink at its turn and records the
// segment's actuals from its recorder. It joins u's workers whether or not
// the run has already failed: they write their results until they exit.
func (x *run) deliver(u *unit) {
	start := time.Now()
	x.w.SetRecorder(u.rec)
	if u.s.Kind == plan.SegFrames {
		x.deliverRender(u)
	} else if x.err == nil {
		x.fail(x.copyInline(u))
	}
	if x.err != nil {
		u.rec.SetAttr("error", x.err.Error())
		u.rec.End()
		return
	}
	act := obs.SegmentActuals{
		Kind: u.s.Kind.String(), Wall: time.Since(start), Work: u.rec.Work(),
		Shards: len(u.shards), ShardDecodes: make([]int64, len(u.shards)),
	}
	for i, sh := range u.shards {
		w := sh.rec.Work()
		act.ShardDecodes[i] = w.FramesDecoded
		act.FramesRendered += w.FramesEncoded
	}
	x.m.Segments = append(x.m.Segments, act)
	x.m.FramesRendered += act.FramesRendered
	u.rec.SetAttr("actuals", act)
	u.rec.End()
	x.w.Flush()
}

// deliverRender delivers a render unit: a result-cache hit splices as raw
// packets (stream copies — nothing was rendered this run); anything else
// drains the unit's shards in order, delivering each batch as
// shard-encoded frames while the run is healthy and discarding it after
// a failure.
func (x *run) deliverRender(u *unit) {
	if u.key != "" {
		<-u.decided // must-drain join: the resolver decides at once on a hit, a miss or ctx's end, else when the concurrent fill it waits on ends; its shards must not outlive the run
		if u.err != nil {
			x.fail(u.err)
			return
		}
		if u.seg != nil {
			u.rec.Inc(obs.EventResultHit)
			for _, pkt := range u.seg.Packets {
				if x.err != nil {
					return
				}
				if err := x.w.WriteRawPacket(pkt.Key, pkt.Data); err != nil {
					x.fail(fmt.Errorf("exec: deliver cached segment: %w", err))
				}
			}
			return
		}
		u.rec.Inc(obs.EventResultMiss)
	}
	for _, sh := range u.shards {
		for batch := range sh.out {
			for _, pkt := range batch {
				if x.err != nil {
					break
				}
				if err := x.w.WriteEncodedFrame(pkt.Key, pkt.Data); err != nil {
					x.fail(fmt.Errorf("exec: shard [%d,%d) deliver: %w", sh.lo, sh.hi, err))
					break
				}
			}
		}
		if sh.started {
			<-x.window // frees the delivered shard's window slot from a buffered channel; never blocks
		}
		// errShardAborted appears only once abort is closed or ctx has ended,
		// so it is never the error ExecuteTo reports.
		if sh.err != nil {
			x.fail(fmt.Errorf("exec: shard [%d,%d): %w", sh.lo, sh.hi, sh.err))
		}
	}
}

// copyInline runs a copy unit on the delivery goroutine, recording into
// the unit's recorder through the shared reader and the sink.
func (x *run) copyInline(u *unit) error {
	if u.s.Kind != plan.SegCopy {
		return fmt.Errorf("exec: unknown segment kind %v", u.s.Kind)
	}
	r, err := x.readers.get(u.s.Video, u.rec)
	if err != nil {
		return err
	}
	if err := media.CopyRange(x.w, r, u.s.From, u.s.To); err != nil {
		return fmt.Errorf("exec: copy segment: %w", err)
	}
	return nil
}
