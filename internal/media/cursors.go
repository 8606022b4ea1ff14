package media

import (
	"context"
	"fmt"

	"v2v/internal/container"
	"v2v/internal/frame"
	"v2v/internal/obs"
	"v2v/internal/rational"
)

// Cursors is a frame source that stays efficient under interleaved access
// patterns. A single Reader decodes sequentially; an expression like
// grid(v[t], v[t+60], v[t+120], v[t+180]) interleaves four positions in
// one file, and funnelling them through one decoder would restart from a
// keyframe on every read (catastrophic with long GOPs). Cursors keeps up
// to MaxPerVideo decoder states per file and routes each read to the
// cursor whose position matches, so each tap decodes its stream once —
// the same trick FFmpeg filter graphs get from per-input demuxers.
type Cursors struct {
	srcs    map[string]*container.Reader
	max     int
	open    map[string][]*Reader
	conceal bool
	ctx     context.Context
	cache   *Cache
	rec     *obs.Recorder
}

// DefaultCursorsPerVideo bounds decoder states per file; a 2x2 grid needs
// four.
const DefaultCursorsPerVideo = 6

// NewCursors builds a cursor pool over the given video-name -> container
// bindings, which it shares (NewReader): many pools may read one
// container at once, and Close leaves them open. maxPerVideo <= 0 selects
// DefaultCursorsPerVideo. Not safe for concurrent use; open one pool per
// goroutine.
func NewCursors(srcs map[string]*container.Reader, maxPerVideo int) *Cursors {
	if maxPerVideo <= 0 {
		maxPerVideo = DefaultCursorsPerVideo
	}
	return &Cursors{srcs: srcs, max: maxPerVideo, open: map[string][]*Reader{}}
}

// SetConceal switches the pool's cursors between fail-fast and
// error-concealment mode (see Reader.SetConceal); SetRecorder attributes
// their decodes and the pool's GOP-cache lookups to a per-request
// recorder. Both apply to cursors opened from then on: call them before
// the first read.
func (c *Cursors) SetConceal(on bool)            { c.conceal = on }
func (c *Cursors) SetRecorder(rec *obs.Recorder) { c.rec = rec }

// SetCache routes this pool's reads through a shared cache's decoded GOPs
// (when it holds KindGOP): FrameAt serves cache-resident GOPs without
// touching a decoder, and fills missing GOPs through this pool's own
// cursors (so decode work stays attributed to the goroutine that
// performed it). The cache is safe for concurrent use even though the
// pool itself is not — many per-goroutine pools share one cache. A read
// waiting on another pool's fill of the same GOP gives up when ctx ends.
func (c *Cursors) SetCache(ctx context.Context, cache *Cache) { c.ctx, c.cache = ctx, cache }

// FrameAt returns the frame of the named video at exactly time t. The
// frame is shared and must not be modified; the caller owns one reference
// to it and Releases it when done (see Reader).
func (c *Cursors) FrameAt(video string, t rational.Rat) (*frame.Frame, error) {
	cr, ok := c.srcs[video]
	if !ok {
		return nil, fmt.Errorf("media: unknown video %q", video)
	}
	target, err := cr.IndexOfTime(t)
	if err != nil {
		return nil, err
	}
	if c.cache.Holds(KindGOP) {
		if fr, ok, err := c.cachedFrame(video, cr, target); ok || err != nil {
			return fr, err
		}
	}
	r, err := c.cursorFor(video, target)
	if err != nil {
		return nil, err
	}
	return r.FrameAtIndex(target)
}

// cachedFrame serves target from the shared cache, filling the whole
// containing GOP on a miss. GOPs are keyed by the source's content ID, so
// a file rewritten in place never serves its old frames. ok=false with a
// nil error falls back to the direct cursor path (unmappable GOP bounds,
// or a fill error — which the direct path will then surface with its
// usual semantics); a wait cut short by ctx returns ctx's error.
func (c *Cursors) cachedFrame(video string, cr *container.Reader, target int) (*frame.Frame, bool, error) {
	k, ok := cr.KeyframeAtOrBefore(target)
	if !ok {
		return nil, false, nil
	}
	// NextKeyframeAfter is "at or after", so probe from k+1 to find the
	// GOP's end rather than k itself.
	end := cr.NumPackets()
	if nk, found := cr.NextKeyframeAfter(k + 1); found && nk < end {
		end = nk
	}
	fr, hit, err := c.cache.GOP(c.ctx, cr.ContentID(), k, target-k, func() ([]*frame.Frame, error) {
		return c.decodeGOP(video, k, end)
	})
	if err != nil {
		return nil, false, c.ctx.Err()
	}
	if hit {
		c.rec.Inc(obs.EventGOPHit)
	} else {
		c.rec.Inc(obs.EventGOPMiss)
	}
	return fr, fr != nil, nil
}

// decodeGOP decodes packets [k, end) through this pool's cursors — the
// fill path for cache misses. Each returned frame carries the reference
// FrameAtIndex gave this caller; the cache takes them over.
func (c *Cursors) decodeGOP(video string, k, end int) ([]*frame.Frame, error) {
	r, err := c.cursorFor(video, k)
	if err != nil {
		return nil, err
	}
	frames := make([]*frame.Frame, 0, end-k)
	for i := k; i < end; i++ {
		fr, err := r.FrameAtIndex(i)
		if err != nil {
			for _, got := range frames {
				got.Release()
			}
			return nil, err
		}
		frames = append(frames, fr)
	}
	return frames, nil
}

// cursorFor picks (or opens) the cursor that reaches target in the fewest
// decodes.
func (c *Cursors) cursorFor(video string, target int) (*Reader, error) {
	rs := c.open[video]
	if len(rs) == 0 {
		return c.openCursor(video)
	}
	// 1. A cursor already positioned at (or one past) the target reads
	// for free or purely sequentially.
	for _, r := range rs {
		if n := r.NextIndex(); n == target || n-1 == target {
			return r, nil
		}
	}
	// 2. A cursor behind the target with no keyframe between them rolls
	// forward over target-n+1 packets. One behind an earlier keyframe would
	// restart at the target's (FrameAtIndex) — exactly what a fresh cursor
	// costs — and taking it strands the tap that was reading through it, so
	// it does not count; on a tie the fresh cursor wins for the same reason,
	// while the pool has room for one.
	k, _ := c.srcs[video].KeyframeAtOrBefore(target)
	room := len(rs) < c.max
	var best *Reader
	bestCost := target - k + 1 // a fresh cursor, from the target's keyframe
	if !room {
		bestCost++
	}
	for _, r := range rs {
		if n := r.NextIndex(); n >= k && n <= target && target-n+1 < bestCost {
			best, bestCost = r, target-n+1
		}
	}
	if best != nil {
		return best, nil
	}
	// 3. Open a fresh cursor for a new access pattern.
	if room {
		return c.openCursor(video)
	}
	// 4. Pool full: recycle the cursor with the smallest reposition cost.
	best = rs[0]
	bestDist := 1 << 30
	for _, r := range rs {
		d := target - r.NextIndex()
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = r, d
		}
	}
	return best, nil
}

func (c *Cursors) openCursor(video string) (*Reader, error) {
	r, err := NewReader(c.srcs[video])
	if err != nil {
		return nil, err
	}
	r.SetConceal(c.conceal)
	r.SetRecorder(c.rec)
	c.open[video] = append(c.open[video], r)
	return r, nil
}

// Close releases all cursors; the containers stay open.
func (c *Cursors) Close() {
	for _, rs := range c.open {
		for _, r := range rs {
			r.Close()
		}
	}
	c.open = map[string][]*Reader{}
}
