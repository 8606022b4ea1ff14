package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"v2v/internal/check"
	"v2v/internal/media"
	"v2v/internal/opt"
	"v2v/internal/plan"
	"v2v/internal/vql"
)

// buildPlanSrc is buildPlan with a caller-supplied full spec body (the
// streaming tests need multi-segment match plans over longer timedomains).
func buildPlanSrc(t *testing.T, src string, optimize bool) *plan.Plan {
	t.Helper()
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := check.Check(s, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if optimize {
		if _, err := opt.Optimize(p, optOptions()); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// spliceSpec is a 4-arm splice over the fixture video: a copyable head,
// two distinct render arms, and a copyable tail — the shape that
// exercises mixed unit kinds in one streaming plan.
func spliceSpec() string {
	return fmt.Sprintf(`
		timedomain range(0, 4, 1/24);
		videos { v: %q; }
		render(t) = match t {
			t in range(0, 1, 1/24) => v[t],
			t in range(1, 2, 1/24) => grade(v[t], 5, 1.0, 1.0),
			t in range(2, 3, 1/24) => blur(v[t - 2], 1.0),
			t in range(3, 4, 1/24) => v[t - 3],
		};`, fxVid)
}

func streamBytes(t *testing.T, p *plan.Plan, o Options) ([]byte, *Metrics) {
	t.Helper()
	var buf bytes.Buffer
	info := p.Checked.Output
	w, err := media.NewStreamWriter(&buf, info)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExecuteTo(context.Background(), p, w, o)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), m
}

// TestStreamingByteIdentity asserts the tentpole's core invariant: a
// streaming run produces byte-identical output to a non-streaming run,
// across copy/render mixes, sharded segments, and warm result-cache
// splices.
func TestStreamingByteIdentity(t *testing.T) {
	cases := []struct {
		name     string
		optimize bool
		shards   int // applied to every SegFrames segment when > 1
	}{
		{"unoptimized", false, 0},
		{"optimized", true, 0},
		{"sharded", true, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := buildPlanSrc(t, spliceSpec(), tc.optimize)
			stream := buildPlanSrc(t, spliceSpec(), tc.optimize)
			if tc.shards > 1 {
				for _, s := range ref.Segments {
					if s.Kind == plan.SegFrames {
						s.Shards = tc.shards
					}
				}
				for _, s := range stream.Segments {
					if s.Kind == plan.SegFrames {
						s.Shards = tc.shards
					}
				}
			}
			want, _ := streamBytes(t, ref, Options{})
			got, m := streamBytes(t, stream, Options{Streaming: true})
			if !bytes.Equal(want, got) {
				t.Fatalf("streaming output differs: %d bytes vs %d", len(got), len(want))
			}
			if len(m.Segments) != len(stream.Segments) {
				t.Errorf("streaming actuals = %d segments, plan has %d", len(m.Segments), len(stream.Segments))
			}
		})
	}
}

// TestStreamingByteIdentityWarmCache splices warm result-cache hits in
// streaming mode and asserts the bytes match a non-streaming warm run.
func TestStreamingByteIdentityWarmCache(t *testing.T) {
	rc := media.NewResultCache(64 << 20)
	warm := func(streaming bool) []byte {
		p := buildPlanSrc(t, spliceSpec(), true)
		b, _ := streamBytes(t, p, Options{ResultCache: rc, Streaming: streaming})
		return b
	}
	warm(false) // cold fill
	want := warm(false)
	got := warm(true)
	if !bytes.Equal(want, got) {
		t.Fatalf("warm streaming output differs: %d bytes vs %d", len(got), len(want))
	}
	// The warm streaming run actually hit the cache.
	p := buildPlanSrc(t, spliceSpec(), true)
	_, m := streamBytes(t, p, Options{ResultCache: rc, Streaming: true})
	if m.ResultCacheHits == 0 {
		t.Error("warm streaming run recorded no result-cache hits")
	}
}

// TestStreamingPresentationOrder runs a multi-segment streaming plan and
// asserts OnSegmentDone fires in strict presentation order (header first)
// and that the decoded output frames are in order — under -race this also
// exercises the scheduler/delivery handoff for data races.
func TestStreamingPresentationOrder(t *testing.T) {
	p := buildPlanSrc(t, spliceSpec(), true)
	var buf bytes.Buffer
	w, err := media.NewStreamWriter(&buf, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	var doneOrder []int
	_, err = ExecuteTo(context.Background(), p, w, Options{
		Streaming:     true,
		OnSegmentDone: func(i int) { doneOrder = append(doneOrder, i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{-1}
	for i := range p.Segments {
		want = append(want, i)
	}
	if len(doneOrder) != len(want) {
		t.Fatalf("OnSegmentDone calls = %v, want %v", doneOrder, want)
	}
	for i := range want {
		if doneOrder[i] != want[i] {
			t.Fatalf("OnSegmentDone order = %v, want %v", doneOrder, want)
		}
	}
	// The stream decodes cleanly to the full frame count, in order.
	r, err := media.NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for {
		_, err := r.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
	}
	if frames != 96 {
		t.Fatalf("streamed frames = %d, want 96", frames)
	}
	if tr, ok := r.Trailer(); !ok || tr.Status != "ok" {
		t.Errorf("streaming run trailer = %+v,%v", tr, ok)
	}
}

// TestStreamingSlowConsumerDoesNotPinWorkers runs one streaming execution
// against a sink that takes ~10ms per packet and, concurrently, a fast
// run of the same plan. The fast run must finish long before the slow one
// — the slow consumer stalls only its own delivery goroutine, not the
// shared CPU pool.
func TestStreamingSlowConsumerDoesNotPinWorkers(t *testing.T) {
	slowPlan := buildPlanSrc(t, spliceSpec(), true)
	fastPlan := buildPlanSrc(t, spliceSpec(), true)

	type result struct {
		wall time.Duration
		err  error
	}
	slowCh := make(chan result, 1)
	go func() {
		var buf bytes.Buffer
		w, err := media.NewStreamWriter(&slowWriter{w: &buf, perWrite: 5 * time.Millisecond}, slowPlan.Checked.Output)
		if err != nil {
			slowCh <- result{0, err}
			return
		}
		start := time.Now()
		_, err = ExecuteTo(context.Background(), slowPlan, w, Options{Streaming: true, Parallelism: 2})
		slowCh <- result{time.Since(start), err}
	}()

	// Give the slow run a head start so its workers are live.
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	var buf bytes.Buffer
	w, err := media.NewStreamWriter(&buf, fastPlan.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteTo(context.Background(), fastPlan, w, Options{Streaming: true, Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	fastWall := time.Since(start)

	slow := <-slowCh
	if slow.err != nil {
		t.Fatal(slow.err)
	}
	// 96 packets (plus header/trailer writes) at 5ms each ≥ ~480ms of
	// pure sink stall; the fast run shares the machine but not the stall.
	if fastWall > slow.wall/2 {
		t.Errorf("fast run took %v vs slow run %v; slow consumer appears to pin shared workers", fastWall, slow.wall)
	}
}

// slowWriter sleeps on every Write — a transport-level slow client.
type slowWriter struct {
	w        io.Writer
	perWrite time.Duration
}

func (s *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(s.perWrite)
	return s.w.Write(p)
}

// TestStreamingErrorWritesTrailerAndDrains injects a panicking transform
// into a late segment: the streaming run must fail with that error (not
// the internal abort sentinel), drain every worker, and leave a typed
// error trailer a consumer can distinguish from truncation.
func TestStreamingErrorWritesTrailerAndDrains(t *testing.T) {
	registerPanicUDF("teststream_panic")
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		render(t) = match t {
			t in range(0, 1, 1/24) => grade(v[t], 5, 1.0, 1.0),
			t in range(1, 2, 1/24) => teststream_panic(v[t]),
		};`, fxVid)
	p := buildPlanSrc(t, src, true)
	var buf bytes.Buffer
	w, err := media.NewStreamWriter(&buf, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExecuteTo(context.Background(), p, w, Options{Streaming: true})
	if err == nil {
		t.Fatal("panicking segment should fail the streaming run")
	}
	if strings.Contains(err.Error(), "aborted after prior failure") {
		t.Fatalf("surfaced the internal abort sentinel: %v", err)
	}
	// The consumer sees a typed failure, not silent truncation.
	r, rerr := media.NewStreamReader(&buf)
	if rerr != nil {
		t.Fatal(rerr)
	}
	var last error
	for {
		if _, _, last = r.NextPacket(); last != nil {
			break
		}
	}
	if !errors.Is(last, media.ErrStreamFailed) {
		t.Fatalf("stream end = %v, want ErrStreamFailed", last)
	}
}

// TestWarmCacheFirstOutputFast is the regression test for the FirstOutput
// audit: a warm result-cache run against a slow sink must stamp
// FirstOutput on the first spliced packet, far below the full wall clock
// — not at segment end.
func TestWarmCacheFirstOutputFast(t *testing.T) {
	rc := media.NewResultCache(64 << 20)
	run := func(perWrite time.Duration) *Metrics {
		p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, true)
		var buf bytes.Buffer
		w, err := media.NewStreamWriter(&slowWriter{w: &buf, perWrite: perWrite}, p.Checked.Output)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ExecuteTo(context.Background(), p, w, Options{ResultCache: rc})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run(0) // cold fill
	m := run(2 * time.Millisecond)
	if m.ResultCacheHits != 1 {
		t.Fatalf("warm run hits = %d", m.ResultCacheHits)
	}
	// 48 spliced packets at 2ms each ≈ 96ms wall; the first packet lands
	// within the first couple of writes.
	if m.FirstOutput > m.Wall/4 {
		t.Errorf("warm-path FirstOutput = %v vs wall %v; stamped too late", m.FirstOutput, m.Wall)
	}
}

// TestCopyFirstOutputFast is the copy-path analogue: a stream-copied
// segment against a slow sink stamps FirstOutput on its first packet.
func TestCopyFirstOutputFast(t *testing.T) {
	p := buildPlan(t, `render(t) = v[t];`, true)
	var buf bytes.Buffer
	w, err := media.NewStreamWriter(&slowWriter{w: &buf, perWrite: 2 * time.Millisecond}, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExecuteTo(context.Background(), p, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Output.PacketsCopied == 0 {
		t.Fatalf("plan did not stream-copy: %+v", m.Output)
	}
	if m.FirstOutput > m.Wall/4 {
		t.Errorf("copy-path FirstOutput = %v vs wall %v; stamped too late", m.FirstOutput, m.Wall)
	}
}

// TestStreamingSingleSegmentStillFlushes asserts the OnSegmentDone hook
// fires for single-segment plans too (header then segment), which take
// the sequential path even with Streaming set.
func TestStreamingSingleSegmentStillFlushes(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, true)
	var buf bytes.Buffer
	w, err := media.NewStreamWriter(&buf, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	_, err = ExecuteTo(context.Background(), p, w, Options{
		Streaming:     true,
		OnSegmentDone: func(i int) { calls = append(calls, i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != -1 || calls[1] != 0 {
		t.Fatalf("OnSegmentDone calls = %v, want [-1 0]", calls)
	}
}

// TestStreamingCancellation cancels mid-run and asserts the context error
// surfaces and all workers drain (no hang, no race).
func TestStreamingCancellation(t *testing.T) {
	p := buildPlanSrc(t, spliceSpec(), true)
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	w, err := media.NewStreamWriter(&buf, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	_, err = ExecuteTo(ctx, p, w, Options{
		Streaming: true,
		OnSegmentDone: func(int) {
			n++
			if n == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled streaming run = %v, want context.Canceled", err)
	}
}
