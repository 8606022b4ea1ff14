package exec

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"v2v/internal/check"
	"v2v/internal/media"
	"v2v/internal/opt"
	"v2v/internal/plan"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

// failAfterWriter accepts n Writes, then fails every subsequent one.
type failAfterWriter struct {
	mu sync.Mutex
	n  int
}

var errSinkFull = errors.New("sink full (injected)")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n <= 0 {
		return 0, errSinkFull
	}
	w.n--
	return len(p), nil
}

// A sink write error must not end the delivery loop while shard workers
// are still running: the workers write their results until they exit, and
// returning early would leave them behind the caller's deferred cleanup.
// Run under -race; the drain makes it silent.
func TestFailingSinkDrainsShards(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, false)
	p.Segments[0].Shards = 2
	// Enough budget for the stream header plus a couple of packets, so the
	// failure lands mid-delivery of the first chunk while the second shard
	// can still be in flight.
	sink, err := media.NewStreamWriter(&failAfterWriter{n: 8}, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExecuteTo(context.Background(), p, sink, Options{Parallelism: 2})
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("err = %v, want wrapped %v", err, errSinkFull)
	}
	if !strings.Contains(err.Error(), "deliver") {
		t.Errorf("err = %v, want a shard-delivery error", err)
	}
}

// Concurrent syntheses sharing one GOP cache must (a) be race-free,
// (b) collapse duplicate decode work via singleflight, and (c) produce
// byte-identical output to a cache-less run.
func TestConcurrentSynthesesShareGOPCache(t *testing.T) {
	const workers = 4
	body := `render(t) = grade(v[t], 5, 1.0, 1.0);`

	// Reference: one run with the cache off.
	ref := buildPlan(t, body, false)
	var refBuf strings.Builder
	refSink, err := media.NewStreamWriter(&nopWriter{&refBuf}, ref.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	refM, err := ExecuteTo(context.Background(), ref, refSink, Options{})
	if err != nil {
		t.Fatal(err)
	}

	cache := media.NewGOPCache(0)
	plans := make([]*plan.Plan, workers)
	sinks := make([]*media.StreamWriter, workers)
	bufs := make([]*strings.Builder, workers)
	for i := range plans {
		plans[i] = buildPlan(t, body, false)
		bufs[i] = &strings.Builder{}
		if sinks[i], err = media.NewStreamWriter(&nopWriter{bufs[i]}, plans[i].Checked.Output); err != nil {
			t.Fatal(err)
		}
	}
	decodes := make([]int64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := ExecuteTo(context.Background(), plans[i], sinks[i], Options{GOPCache: cache})
			if err != nil {
				errs[i] = err
				return
			}
			decodes[i] = m.Source.FramesDecoded
		}(i)
	}
	wg.Wait()

	var total int64
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if bufs[i].String() != refBuf.String() {
			t.Errorf("worker %d output differs from cache-off run", i)
		}
		total += decodes[i]
	}
	// Cache off, every worker decodes all 48 frames itself. Shared cache:
	// the two source GOPs are filled once each (48 decodes), everyone else
	// hits. Allow slack for scheduling, but demand at least a halving.
	off := refM.Source.FramesDecoded * workers
	if total*2 > off {
		t.Errorf("shared-cache decodes = %d, want < half of cache-off %d", total, off)
	}
	st := cache.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("cache saw no lookups")
	}
}

// alignChunkBounds must move interior shard boundaries to output indices
// whose source sample is a keyframe: with a +7/24s offset against a
// 24-frame source GOP, output index 17 maps to source keyframe 24.
func TestAlignChunkBoundsToSourceKeyframes(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(v[t + 7/24], 5, 1.0, 1.0);`, false)
	s := p.Segments[0]
	s.AlignVideo, s.AlignOff = "v", rational.New(7, 24)
	readers := newReaderCache(p, false)
	defer readers.closeAll(&Metrics{})

	bounds := chunkBounds(48, 2, 24)
	if len(bounds) != 3 || bounds[0] != 0 || bounds[1] != 24 || bounds[2] != 48 {
		t.Fatalf("chunkBounds = %v", bounds)
	}
	aligned := alignChunkBounds(bounds, s, readers)
	if len(aligned) != 3 || aligned[1] != 17 {
		t.Errorf("aligned bounds = %v, want interior boundary 17", aligned)
	}

	// Without an alignment hint the bounds pass through untouched.
	s.AlignVideo = ""
	same := alignChunkBounds(bounds, s, readers)
	if same[1] != 24 {
		t.Errorf("unaligned bounds = %v, want untouched", same)
	}
}

// The optimizer's shard pass must attach the alignment hint for filtered
// single-source renders, and aligned shards must decode less: a boundary
// mid-source-GOP forces the second shard to decode from the previous
// keyframe up to its first frame.
func TestShardPassAlignmentReducesDecodes(t *testing.T) {
	build := func() *plan.Plan {
		t.Helper()
		src := `
			timedomain range(0, 2, 1/24);
			videos { v: ` + `"` + fxVid + `"` + `; }
			render(t) = grade(v[t + 7/24], 5, 1.0, 1.0);`
		spec, err := vql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := check.Check(spec, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		o := opt.Default()
		o.Parallelism = 2
		if _, err := opt.Optimize(p, o); err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := build()
	s := p.Segments[0]
	if s.Shards != 2 {
		t.Fatalf("shards = %d, want 2", s.Shards)
	}
	if s.AlignVideo != "v" || !s.AlignOff.Equal(rational.New(7, 24)) {
		t.Fatalf("alignment hint = %q %v, want v +7/24", s.AlignVideo, s.AlignOff)
	}
	run := func(p *plan.Plan) int64 {
		t.Helper()
		var buf strings.Builder
		sink, err := media.NewStreamWriter(&nopWriter{&buf}, p.Checked.Output)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ExecuteTo(context.Background(), p, sink, Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		return m.Source.FramesDecoded
	}
	alignedDecodes := run(p)

	p2 := build()
	p2.Segments[0].AlignVideo = "" // strip the hint: boundary stays mid-GOP
	unalignedDecodes := run(p2)
	if alignedDecodes >= unalignedDecodes {
		t.Errorf("aligned decodes = %d, want fewer than unaligned %d",
			alignedDecodes, unalignedDecodes)
	}
}

// stampWriter records when each Write happened, padded so write spacing
// dwarfs clock noise.
type stampWriter struct {
	t0     time.Time
	d      time.Duration
	mu     sync.Mutex
	stamps []time.Duration
}

func (w *stampWriter) Write(p []byte) (int, error) {
	time.Sleep(w.d)
	w.mu.Lock()
	w.stamps = append(w.stamps, time.Since(w.t0))
	w.mu.Unlock()
	return len(p), nil
}

// FirstOutput must be stamped on the first delivered packet, not after a
// whole shard chunk: counting sink writes that completed before the stamp
// separates the two regardless of render speed. The first packet lands
// within a handful of writes (3 header writes + 2 per packet); a whole
// 24-frame chunk takes ~50.
func TestFirstOutputStampedPerPacketNotPerChunk(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, false)
	p.Segments[0].Shards = 2
	w := &stampWriter{t0: time.Now(), d: 2 * time.Millisecond}
	sink, err := media.NewStreamWriter(w, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExecuteTo(context.Background(), p, sink, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.FirstOutput <= 0 {
		t.Fatal("FirstOutput not stamped")
	}
	// FirstOutput is measured from ExecuteTo entry, our stamps from before
	// it — the skew only shrinks the count, never inflates it.
	writesBefore := 0
	for _, s := range w.stamps {
		if s <= m.FirstOutput {
			writesBefore++
		}
	}
	if total := len(w.stamps); writesBefore > 10 {
		t.Errorf("FirstOutput %v stamped after %d of %d sink writes, want within the first packet (<= 10)",
			m.FirstOutput, writesBefore, total)
	}
}
