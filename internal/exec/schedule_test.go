package exec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"v2v/internal/check"
	"v2v/internal/codec"
	"v2v/internal/container"
	"v2v/internal/faults"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/opt"
	"v2v/internal/plan"
	"v2v/internal/vql"
)

// buildPlanSrc is buildPlan with a caller-supplied full spec body (the
// scheduler tests need multi-segment match plans over longer timedomains).
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

// buildPlanPar is the whole optimizer at a fixed parallelism: the plan,
// cuts included, that core.Plan builds for Options{Parallelism: par}.
func buildPlanPar(t *testing.T, src string, par int) *plan.Plan {
	t.Helper()
	p := buildPlanSrc(t, src, false)
	o := opt.Default()
	o.Parallelism = par
	if _, err := opt.Optimize(p, o); err != nil {
		t.Fatal(err)
	}
	return p
}

// spliceSpecOver is a 4-arm splice over vid: a copyable head, two distinct
// render arms, and a copyable tail — the shape that exercises every unit
// kind in one plan.
func spliceSpecOver(vid string) string {
	return fmt.Sprintf(`
		timedomain range(0, 4, 1/24);
		videos { v: %q; }
		render(t) = match t {
			t in range(0, 1, 1/24) => v[t],
			t in range(1, 2, 1/24) => grade(v[t], 5, 1.0, 1.0),
			t in range(2, 3, 1/24) => blur(v[t - 2], 1.0),
			t in range(3, 4, 1/24) => v[t - 3],
		};`, vid)
}

func spliceSpec() string { return spliceSpecOver(fxVid) }

// longSpliceSpec is the same shape with two-second render arms — long
// enough for the shard pass to cut them — 144 frames in all.
func longSpliceSpec() string {
	return fmt.Sprintf(`
		timedomain range(0, 6, 1/24);
		videos { v: %q; }
		render(t) = match t {
			t in range(0, 1, 1/24) => v[t],
			t in range(1, 3, 1/24) => grade(v[t], 5, 1.0, 1.0),
			t in range(3, 5, 1/24) => blur(v[t - 3], 1.0),
			t in range(5, 6, 1/24) => v[t - 5],
		};`, fxVid)
}

// singleSpec is one 96-frame render segment (four output GOPs).
func singleSpec() string {
	return fmt.Sprintf(`
		timedomain range(0, 4, 1/24);
		videos { v: %q; }
		render(t) = blur(v[t], 1.0);`, fxVid)
}

// longGOPSpec is one 96-frame render segment read from the middle of a
// 240-frame source GOP; the output inherits that GOP, so the whole segment
// is less than one output GOP.
func longGOPSpec() string {
	return fmt.Sprintf(`
		timedomain range(0, 4, 1/24);
		videos { s: %q; }
		render(t) = grade(s[t + 1/2], 5, 1.0, 1.0);`, fxSparse)
}

// setShards cuts every render segment of p into up to n shards of whole
// output GOPs — hand-made cuts for tests of the executor, which runs
// whatever cuts the plan carries (opt's own choice is tested in opt).
func setShards(p *plan.Plan, n int) *plan.Plan {
	gop := p.Checked.Output.GOP
	for _, s := range p.Segments {
		if s.Kind != plan.SegFrames {
			continue
		}
		per := (s.FrameCount() + n - 1) / n
		per += (gop - per%gop) % gop
		s.Cuts = nil
		for c := per; c < s.FrameCount(); c += per {
			s.Cuts = append(s.Cuts, c)
		}
	}
	return p
}

// packet is one output packet as a consumer of either sink reads it back.
type packet struct {
	key  bool
	data []byte
}

func streamBytes(t *testing.T, p *plan.Plan, o Options) ([]byte, *Metrics) {
	t.Helper()
	b, m, err := streamRun(p, o)
	if err != nil {
		t.Fatal(err)
	}
	return b, m
}

// streamPackets runs p into an in-memory VMS stream and reads it back.
func streamPackets(t *testing.T, p *plan.Plan, o Options) ([]packet, *Metrics) {
	t.Helper()
	b, m := streamBytes(t, p, o)
	r, err := media.NewStreamReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var pkts []packet
	for {
		key, data, err := r.NextPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, packet{key, data})
	}
	if tr, ok := r.Trailer(); !ok || tr.Status != "ok" || tr.Packets != int64(len(pkts)) {
		t.Fatalf("stream trailer = %+v,%v after %d packets", tr, ok, len(pkts))
	}
	return pkts, m
}

// filePackets runs p into a VMF file and reads it back.
func filePackets(t *testing.T, p *plan.Plan, o Options) ([]packet, *Metrics) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "o.vmf")
	m, err := Execute(context.Background(), p, out, o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := container.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pkts := make([]packet, c.NumPackets())
	for i := range pkts {
		data, err := c.ReadPacket(i)
		if err != nil {
			t.Fatal(err)
		}
		pkts[i] = packet{c.Record(i).Key, data}
	}
	return pkts, m
}

// byteDigest hashes the packet sequence exactly: flags, sizes, payloads.
func byteDigest(pkts []packet) string {
	h := sha256.New()
	for _, p := range pkts {
		fmt.Fprintf(h, "%t %d\n", p.key, len(p.data))
		h.Write(p.data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pixelDigest decodes the packets and hashes every plane of every frame.
// The fixture's codec settings are lossless, so every correct plan of one
// spec yields the same digest whatever its keyframe cadence.
func pixelDigest(t *testing.T, p *plan.Plan, pkts []packet) string {
	t.Helper()
	out := p.Checked.Output
	dec, err := codec.NewDecoder(codec.Config{
		Width: out.Width, Height: out.Height,
		Quality: out.Quality, GOP: out.GOP, Level: out.Level,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, pk := range pkts {
		fr, err := dec.Decode(pk.data)
		if err != nil {
			t.Fatalf("decode packet %d: %v", i, err)
		}
		for _, pl := range fr.Planes() {
			h.Write(pl)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOutputIdentity is the engine's output contract. For a fixed spec and
// parallelism — hence a fixed plan, cuts included — the packet bytes are
// the same whichever sink receives them and whatever the caches held;
// across parallelisms (which moves the shard cuts, hence the keyframes)
// and against the unoptimized one-worker render, the decoded pixels are
// the same.
func TestOutputIdentity(t *testing.T) {
	specs := []struct {
		name, src string
		frames    int
		// shards is how many shards the plan's first render segment has at
		// Parallelism 1, 2 and 8: the matrix must cover cut plans.
		shards [3]int
	}{
		{"splice", longSpliceSpec(), 144, [3]int{1, 2, 2}},
		{"single", singleSpec(), 96, [3]int{1, 2, 4}},
		{"long-gop", longGOPSpec(), 96, [3]int{1, 2, 3}},
		// Smart cuts: heads too short to cut, and one long enough to shard.
		{"smart-cuts", kabrSpliceSpec(), 192, [3]int{1, 1, 1}},
		{"sharded-head", tosClipSpec(), 240, [3]int{1, 2, 3}},
	}
	sinks := []struct {
		name string
		run  func(*testing.T, *plan.Plan, Options) ([]packet, *Metrics)
	}{{"file", filePackets}, {"stream", streamPackets}}

	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			ref := buildPlanSrc(t, spec.src, false)
			refPkts, _ := filePackets(t, ref, Options{Parallelism: 1})
			wantPixels := pixelDigest(t, ref, refPkts)
			if len(refPkts) != spec.frames {
				t.Fatalf("reference render has %d packets, want %d", len(refPkts), spec.frames)
			}
			for pi, par := range []int{1, 2, 8} {
				for _, s := range buildPlanPar(t, spec.src, par).Segments {
					if s.Kind == plan.SegFrames {
						if got := len(s.Bounds()) - 1; got != spec.shards[pi] {
							t.Fatalf("Parallelism %d: first render segment has %d shards, want %d", par, got, spec.shards[pi])
						}
						break
					}
				}
				wantBytes := ""
				for _, sink := range sinks {
					gc := media.NewCache(0, -1, 1)
					rc := media.NewCache(-1, 0, 1)
					states := []struct {
						name string
						o    Options
					}{
						{"off", Options{}},
						{"gop-cold", Options{Cache: gc}},
						{"gop-warm", Options{Cache: gc}},
						{"result-cold", Options{Cache: rc}},
						{"result-warm", Options{Cache: rc}},
					}
					for _, st := range states {
						name := fmt.Sprintf("par=%d/%s/%s", par, sink.name, st.name)
						p := buildPlanPar(t, spec.src, par)
						st.o.Parallelism = par
						pkts, m := sink.run(t, p, st.o)
						if got := byteDigest(pkts); wantBytes == "" {
							wantBytes = got
						} else if got != wantBytes {
							t.Errorf("%s: packet bytes differ from par=%d/file/off", name, par)
						}
						if got := pixelDigest(t, p, pkts); got != wantPixels {
							t.Errorf("%s: decoded pixels differ from the unoptimized one-worker render", name)
						}
						if len(m.Segments) != len(p.Segments) {
							t.Errorf("%s: actuals for %d segments, plan has %d", name, len(m.Segments), len(p.Segments))
						}
						switch st.name {
						case "gop-warm":
							if m.Source.FramesDecoded != 0 || m.Source.GOPCacheHits == 0 {
								t.Errorf("%s: %d decodes, %d GOP-cache hits; want a fully warm run",
									name, m.Source.FramesDecoded, m.Source.GOPCacheHits)
							}
						case "result-cold":
							if m.ResultCacheHits != 0 || m.ResultCacheMisses == 0 {
								t.Errorf("%s: hits=%d misses=%d, want misses only", name, m.ResultCacheHits, m.ResultCacheMisses)
							}
						case "result-warm":
							if m.ResultCacheMisses != 0 || m.ResultCacheHits == 0 || m.TotalDecodes() != 0 || m.TotalEncodes() != 0 {
								t.Errorf("%s: hits=%d misses=%d decodes=%d encodes=%d, want splices only",
									name, m.ResultCacheHits, m.ResultCacheMisses, m.TotalDecodes(), m.TotalEncodes())
							}
						}
					}
				}
			}
		})
	}
}

// flushRecorder is a stream destination that records the stream length
// at each Flush, and runs onFlush (if set) on each.
type flushRecorder struct {
	bytes.Buffer
	marks   []int
	onFlush func(n int)
}

func (f *flushRecorder) Flush() {
	f.marks = append(f.marks, f.Len())
	if f.onFlush != nil {
		f.onFlush(len(f.marks))
	}
}

// TestPresentationOrder asserts where the sink is flushed, for multi- and
// single-segment plans alike, while the render segments run concurrently:
// the header first, then only on packet boundaries in strict presentation
// order, at every segment's end, and never twice at one offset. Under
// -race this also exercises the scheduler/delivery handoff.
func TestPresentationOrder(t *testing.T) {
	for name, src := range map[string]string{"splice": spliceSpec(), "single": singleSpec()} {
		t.Run(name, func(t *testing.T) {
			p := buildPlanSrc(t, src, true)
			var dst flushRecorder
			w, err := media.NewStreamWriter(&dst, p.Checked.Output)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ExecuteTo(context.Background(), p, w, Options{Parallelism: 2}); err != nil {
				t.Fatal(err)
			}
			// ends[k] is the stream length once the header and k packets
			// are out.
			b := dst.Bytes()
			br := bytes.NewReader(b)
			r, err := media.NewStreamReader(br)
			if err != nil {
				t.Fatal(err)
			}
			ends := []int{len(b) - br.Len()}
			for {
				if _, _, err := r.NextPacket(); err != nil {
					if err != io.EOF {
						t.Fatal(err)
					}
					break
				}
				ends = append(ends, len(b)-br.Len())
			}
			if len(ends) != 97 {
				t.Fatalf("streamed packets = %d, want 96", len(ends)-1)
			}
			if len(dst.marks) == 0 || dst.marks[0] != ends[0] {
				t.Fatalf("flushed at stream offsets %v, want the header's end %d first", dst.marks, ends[0])
			}
			boundary := make(map[int]bool, len(ends))
			for _, e := range ends {
				boundary[e] = true
			}
			flushed := make(map[int]bool, len(dst.marks))
			for i, m := range dst.marks {
				if !boundary[m] {
					t.Errorf("flush at stream offset %d is not on a packet boundary", m)
				}
				if i > 0 && m <= dst.marks[i-1] {
					t.Errorf("flush at stream offset %d follows one at %d: flushed twice or out of order", m, dst.marks[i-1])
				}
				flushed[m] = true
			}
			n := 0
			for i, s := range p.Segments {
				n += s.FrameCount()
				if !flushed[ends[n]] {
					t.Errorf("segment %d ends at stream offset %d, which was not flushed (flushes %v)", i, ends[n], dst.marks)
				}
			}
		})
	}
}

// TestSlowConsumerDoesNotPinWorkers runs one execution against a sink
// that takes ~5ms per write and, concurrently, a fast run of the same
// plan. The fast run must finish long before the slow one — the slow
// consumer stalls only its own delivery goroutine, not the shared CPU
// pool.
func TestSlowConsumerDoesNotPinWorkers(t *testing.T) {
	slowPlan := buildPlanSrc(t, spliceSpec(), true)
	fastPlan := buildPlanSrc(t, spliceSpec(), true)

	type result struct {
		wall time.Duration
		err  error
	}
	slowCh := make(chan result, 1)
	started := make(chan struct{})
	go func() {
		// The header flush: the slow run is inside ExecuteTo.
		var once sync.Once
		dst := &flushRecorder{onFlush: func(int) { once.Do(func() { close(started) }) }}
		w, err := media.NewStreamWriter(&slowWriter{w: dst, perWrite: 5 * time.Millisecond}, slowPlan.Checked.Output)
		if err != nil {
			close(started)
			slowCh <- result{0, err}
			return
		}
		start := time.Now()
		_, err = ExecuteTo(context.Background(), slowPlan, w, Options{Parallelism: 2})
		slowCh <- result{time.Since(start), err}
	}()

	<-started
	start := time.Now()
	if _, _, err := streamRun(fastPlan, Options{Parallelism: 2}); err != nil {
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

// streamRun is streamBytes returning the error instead of failing.
func streamRun(p *plan.Plan, o Options) ([]byte, *Metrics, error) {
	var buf bytes.Buffer
	w, err := media.NewStreamWriter(&buf, p.Checked.Output)
	if err != nil {
		return nil, nil, err
	}
	m, err := ExecuteTo(context.Background(), p, w, o)
	return buf.Bytes(), m, err
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

// Flush passes flushes through to the wrapped writer, if it takes them.
func (s *slowWriter) Flush() {
	if f, ok := s.w.(interface{ Flush() }); ok {
		f.Flush()
	}
}

// TestErrorWritesTrailerAndDrains injects a panicking transform into a
// late segment: the run must fail with that error (not the internal abort
// sentinel), drain every worker, and leave a typed error trailer a
// consumer can distinguish from truncation.
func TestErrorWritesTrailerAndDrains(t *testing.T) {
	registerPanicUDF("teststream_panic")
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		render(t) = match t {
			t in range(0, 1, 1/24) => grade(v[t], 5, 1.0, 1.0),
			t in range(1, 2, 1/24) => teststream_panic(v[t]),
		};`, fxVid)
	p := buildPlanSrc(t, src, true)
	b, _, err := streamRun(p, Options{Parallelism: 2})
	if err == nil {
		t.Fatal("panicking segment should fail the run")
	}
	if strings.Contains(err.Error(), "aborted after prior failure") {
		t.Fatalf("surfaced the internal abort sentinel: %v", err)
	}
	// The consumer sees a typed failure, not silent truncation.
	r, rerr := media.NewStreamReader(bytes.NewReader(b))
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
	rc := media.NewCache(-1, 64<<20, 1)
	run := func(perWrite time.Duration) *Metrics {
		p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, true)
		var buf bytes.Buffer
		w, err := media.NewStreamWriter(&slowWriter{w: &buf, perWrite: perWrite}, p.Checked.Output)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ExecuteTo(context.Background(), p, w, Options{Cache: rc})
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

// TestCancellationMidPlan cancels at a segment boundary and asserts the
// context error surfaces and all workers drain (no hang, no race).
func TestCancellationMidPlan(t *testing.T) {
	p := buildPlanSrc(t, spliceSpec(), true)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel at the first segment's end, the second flush.
	dst := &flushRecorder{onFlush: func(n int) {
		if n == 2 {
			cancel()
		}
	}}
	w, err := media.NewStreamWriter(dst, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExecuteTo(ctx, p, w, Options{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run = %v, want context.Canceled", err)
	}
}

// TestSegmentActualsSumToRunTotals renders a multi-segment plan with its
// segments overlapping in time, over a source with one damaged packet, and
// asserts that what EXPLAIN ANALYZE attributes to the segments adds up to
// what the run reports as a whole — frames, concealments and stage walls.
func TestSegmentActualsSumToRunTotals(t *testing.T) {
	vid := copyFixture(t)
	off, size := packetRegion(t, vid, 10)
	if size < 4 {
		t.Fatalf("packet 10 only %d bytes", size)
	}
	if err := faults.CorruptRange(vid, off+2, 2, 42); err != nil {
		t.Fatal(err)
	}
	p := setShards(buildPlanSrc(t, spliceSpecOver(vid), true), 2)
	rec := obs.NewRecorder()
	_, m := streamPackets(t, p, Options{Parallelism: 2, Conceal: true, Recorder: rec})

	var sum obs.SegmentActuals
	for i, a := range m.Segments {
		sum.FramesDecoded += a.FramesDecoded
		sum.FramesEncoded += a.FramesEncoded
		sum.FramesRendered += a.FramesRendered
		sum.Concealed += a.Concealed
		sum.DecodeWall += a.DecodeWall
		sum.FilterWall += a.FilterWall
		sum.EncodeWall += a.EncodeWall
		if p.Segments[i].Kind == plan.SegFrames && (a.DecodeWall <= 0 || a.FilterWall <= 0 || a.EncodeWall <= 0 || a.FramesDecoded == 0) {
			t.Errorf("render segment %d reports no stage work: %+v", i, a)
		}
	}
	if want := m.Source.FramesDecoded + m.Intermediate.FramesDecoded; sum.FramesDecoded != want {
		t.Errorf("segments decoded %d frames, run %d", sum.FramesDecoded, want)
	}
	if sum.FramesEncoded != m.Output.FramesEncoded {
		t.Errorf("segments encoded %d frames, run %d", sum.FramesEncoded, m.Output.FramesEncoded)
	}
	if sum.FramesRendered != m.FramesRendered || sum.FramesRendered != 48 {
		t.Errorf("segments rendered %d frames, run %d, want 48", sum.FramesRendered, m.FramesRendered)
	}
	// The damaged packet is read twice: by the copied head and by the blur
	// arm's tap of the same second.
	if sum.Concealed != m.TotalConcealed() || sum.Concealed < 2 {
		t.Errorf("segments concealed %d frames, run %d, want at least 2", sum.Concealed, m.TotalConcealed())
	}
	for _, st := range []struct {
		stage obs.Stage
		got   time.Duration
	}{{obs.StageDecode, sum.DecodeWall}, {obs.StageFilter, sum.FilterWall}, {obs.StageEncode, sum.EncodeWall}} {
		if want := rec.Stage(st.stage).Wall; st.got != want {
			t.Errorf("segments' %s wall %v, request recorder %v", st.stage, st.got, want)
		}
	}
}

// shardSpan is one shard[lo,hi) span of a trace, in trace microseconds.
type shardSpan struct{ start, end int64 }

func shardSpans(t *testing.T, tr *obs.Trace) []shardSpan {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	var spans []shardSpan
	for _, e := range doc.TraceEvents {
		if strings.HasPrefix(e.Name, "shard[") {
			spans = append(spans, shardSpan{e.Ts, e.Ts + e.Dur})
		}
	}
	return spans
}

// maxOverlap is the largest number of spans open at one instant. A span
// that starts at the microsecond another ends does not overlap it: a
// worker ends its span before it frees its token.
func maxOverlap(spans []shardSpan) int {
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, s := range spans {
		edges = append(edges, edge{s.start, 1}, edge{s.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	open, most := 0, 0
	for _, e := range edges {
		open += e.delta
		most = max(most, open)
	}
	return most
}

// TestResultCacheFillsHoldParallelismCap renders four cacheable two-shard
// segments cold at Parallelism 2: a fill's shards take tokens like any
// others, so no more than two shard workers ever run at once.
func TestResultCacheFillsHoldParallelismCap(t *testing.T) {
	src := fmt.Sprintf(`
		timedomain range(0, 8, 1/24);
		videos { v: %q; }
		render(t) = match t {
			t in range(0, 2, 1/24) => grade(v[t], 5, 1.0, 1.0),
			t in range(2, 4, 1/24) => blur(v[t - 2], 1.0),
			t in range(4, 6, 1/24) => grade(v[t - 4], 9, 1.1, 1.0),
			t in range(6, 8, 1/24) => blur(v[t - 6], 2.0),
		};`, fxVid)
	p := setShards(buildPlanSrc(t, src, true), 2)
	if len(p.Segments) != 4 {
		t.Fatalf("plan has %d segments, want 4", len(p.Segments))
	}
	tr := obs.NewTrace("test")
	_, m := streamPackets(t, p, Options{Parallelism: 2, Cache: media.NewCache(-1, 0, 1), Trace: tr})
	if m.ResultCacheMisses != 4 {
		t.Fatalf("misses = %d, want 4 cold fills", m.ResultCacheMisses)
	}
	spans := shardSpans(t, tr)
	if len(spans) != 8 {
		t.Fatalf("trace has %d shard spans, want 8", len(spans))
	}
	if got := maxOverlap(spans); got > 2 {
		t.Errorf("%d shard workers ran at once, want at most Parallelism = 2", got)
	}
}

// gateWriter reports the first packet written after it is armed.
type gateWriter struct {
	armed bool
	once  sync.Once
	first chan struct{}
}

// gate is the writer testexec_gate waits on: the transform registry is
// process-wide, so the transform outlives the test run that registered it.
var gate atomic.Pointer[gateWriter]

func (w *gateWriter) Write(p []byte) (int, error) {
	if w.armed {
		w.once.Do(func() { close(w.first) })
	}
	return len(p), nil
}

// TestFirstPacketReachesSinkWhileShardsRender gates a two-shard
// single-segment render on its own output: every frame after the first
// waits until the sink has a packet. This completes only if a worker hands
// over its first packet, and delivery writes it, while both shards are
// still rendering.
func TestFirstPacketReachesSinkWhileShardsRender(t *testing.T) {
	gw := &gateWriter{first: make(chan struct{})}
	gate.Store(gw)
	if _, ok := vql.Lookup("testexec_gate"); !ok {
		vql.Register(&vql.Transform{
			Name:   "testexec_gate",
			Params: []vql.Type{vql.TypeFrame},
			Result: vql.TypeFrame,
			Eval: func(_ vql.Alloc, args []vql.Val) (vql.Val, error) {
				if id, ok := frame.ReadStamp(args[0].Frame); ok && id == 0 {
					return args[0], nil
				}
				select {
				case <-gate.Load().first:
					return args[0], nil
				case <-time.After(10 * time.Second):
					return vql.Val{}, errors.New("no packet reached the sink while shards were rendering")
				}
			},
		})
	}
	src := fmt.Sprintf(`
		timedomain range(0, 4, 1/24);
		videos { v: %q; }
		render(t) = testexec_gate(v[t]);`, fxVid)
	p := setShards(buildPlanSrc(t, src, true), 2)
	w, err := media.NewStreamWriter(gw, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	gw.armed = true // the stream header is out; the next write is a packet
	m, err := ExecuteTo(context.Background(), p, w, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Segments[0].Shards != 2 || m.FramesRendered != 96 {
		t.Errorf("shards = %d, rendered = %d; want 2 shards, 96 frames", m.Segments[0].Shards, m.FramesRendered)
	}
}

// hogRun counts the frames testexec_hog renders and closes rendering at
// the first.
type hogRun struct {
	frames    atomic.Int64
	once      sync.Once
	rendering chan struct{}
}

var hog atomic.Pointer[hogRun]

// firstPacketWriter records how many frames the hog had rendered when the
// first packet after arming reached it.
type firstPacketWriter struct {
	armed bool
	at    int64 // -1 until the first packet
}

func (w *firstPacketWriter) Write(p []byte) (int, error) {
	if w.armed && w.at < 0 {
		w.at = hog.Load().frames.Load()
	}
	return len(p), nil
}

// TestFirstPacketWhileAnotherRunRenders starts run B from inside run A's
// first frame, while A renders a 960-frame segment on the only processor.
// B's first packet passes through four goroutines — caller, scheduler,
// worker, delivery loop — and each waits for the processor. A worker
// yields it after every frame, so A renders at most a few more frames
// before B's first packet is in its sink (0–1 in 30 runs, with and
// without -race, on a 2-vCPU 2.1 GHz Xeon). A worker that held the processor until Go preempted it (~10 ms)
// and handed over a second of frames at once let A render 10–77 more
// frames first on the same host.
func TestFirstPacketWhileAnotherRunRenders(t *testing.T) {
	if _, ok := vql.Lookup("testexec_hog"); !ok {
		vql.Register(&vql.Transform{
			Name:   "testexec_hog",
			Params: []vql.Type{vql.TypeFrame},
			Result: vql.TypeFrame,
			Eval: func(_ vql.Alloc, args []vql.Val) (vql.Val, error) {
				h := hog.Load()
				h.frames.Add(1)
				h.once.Do(func() { close(h.rendering) })
				return args[0], nil
			},
		})
	}
	pa := buildPlanSrc(t, fmt.Sprintf(`
		timedomain range(0, 40, 1/24);
		videos { s: %q; }
		render(t) = testexec_hog(blur(s[t], 3.0));`, fxSparse), true)
	pb := buildPlanSrc(t, fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; }
		render(t) = grade(v[t], 5, 1.0, 1.0);`, fxVid), true)
	h := &hogRun{rendering: make(chan struct{})}
	hog.Store(h)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	ctxA, stopA := context.WithCancel(context.Background())
	defer stopA()
	doneA := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		w, err := media.NewStreamWriter(&buf, pa.Checked.Output)
		if err == nil {
			_, err = ExecuteTo(ctxA, pa, w, Options{Parallelism: 1})
		}
		doneA <- err
	}()
	// B starts the moment A's first frame readies this goroutine.
	<-h.rendering
	dst := &firstPacketWriter{at: -1}
	w, err := media.NewStreamWriter(dst, pb.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	dst.armed = true // the stream header is out; the next write is a packet
	if _, err := ExecuteTo(context.Background(), pb, w, Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	stopA()
	if err := <-doneA; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	t.Logf("run A rendered %d frames between run B's start and its first packet", dst.at-1)
	if dst.at >= 960 {
		t.Fatalf("run A finished before run B's first packet: nothing was measured")
	}
	if got, most := dst.at-1, int64(4); got > most {
		t.Errorf("run A rendered %d frames between run B's start and its first packet, want at most %d", got, most)
	}
}

// meeting is where two parties of a test wait for each other:
// testexec_meet's two shards, or the first reads of two source files.
type meeting struct {
	split uint32 // testexec_meet: source frame stamp the second shard starts at
	mu    sync.Mutex
	seen  [2]bool
	both  chan struct{}
}

// arrive records that side is here and waits for the other; it reports
// false if the other never came.
func (m *meeting) arrive(side int) bool {
	m.mu.Lock()
	if m.seen[side] = true; m.seen[0] && m.seen[1] {
		select {
		case <-m.both:
		default:
			close(m.both)
		}
	}
	m.mu.Unlock()
	select {
	case <-m.both:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

var meet atomic.Pointer[meeting]

// TestLongGOPRenderUsesAllWorkers renders 240 frames out of one 240-frame
// output GOP at Parallelism 2 — the shape the parent commit never cut —
// through a transform that lets neither shard past its first frame until
// the other has reached its own: the run completes only if both workers
// render at once, and the trace shows their spans overlapping.
func TestLongGOPRenderUsesAllWorkers(t *testing.T) {
	if _, ok := vql.Lookup("testexec_meet"); !ok {
		vql.Register(&vql.Transform{
			Name:   "testexec_meet",
			Params: []vql.Type{vql.TypeFrame},
			Result: vql.TypeFrame,
			Eval: func(_ vql.Alloc, args []vql.Val) (vql.Val, error) {
				m := meet.Load()
				id, _ := frame.ReadStamp(args[0].Frame)
				half := 0
				if id >= m.split {
					half = 1
				}
				if !m.arrive(half) {
					return vql.Val{}, errors.New("the other shard never started: the render ran on one worker")
				}
				return args[0], nil
			},
		})
	}
	p := buildPlanPar(t, fmt.Sprintf(`
		timedomain range(0, 10, 1/24);
		videos { s: %q; }
		render(t) = testexec_meet(s[t + 1/2]);`, fxSparse), 2)
	bounds := p.Segments[0].Bounds()
	if out := p.Checked.Output; out.GOP != 240 || len(bounds) != 3 {
		t.Fatalf("output GOP %d, bounds %v; want one 240-frame GOP cut in two", out.GOP, bounds)
	}
	meet.Store(&meeting{split: uint32(12 + bounds[1]), both: make(chan struct{})})
	tr := obs.NewTrace("test")
	pkts, m := streamPackets(t, p, Options{Parallelism: 2, Trace: tr})
	if len(pkts) != 240 || m.Segments[0].Shards != 2 {
		t.Fatalf("%d packets in %d shards, want 240 in 2", len(pkts), m.Segments[0].Shards)
	}
	if spans := shardSpans(t, tr); len(spans) != 2 || maxOverlap(spans) != 2 {
		t.Errorf("shard spans %v do not overlap", spans)
	}
}

// cancelAtFrame is the frame count at which testexec_cancel cancels its run.
type cancelAtFrame struct {
	at     int64
	frames atomic.Int64
	cancel context.CancelFunc
}

var canceller atomic.Pointer[cancelAtFrame]

// TestCancelMidShardStopsWithinOneFrame cancels a 240-frame render of one
// 240-frame output GOP from inside frame 30 of a shard. A worker looks at
// its context before every frame, so each worker finishes at most the
// frame it was in; polled per output GOP every shard would have run to its
// end, and polled per second each worker would have rendered up to 24
// more.
func TestCancelMidShardStopsWithinOneFrame(t *testing.T) {
	if _, ok := vql.Lookup("testexec_cancel"); !ok {
		vql.Register(&vql.Transform{
			Name:   "testexec_cancel",
			Params: []vql.Type{vql.TypeFrame},
			Result: vql.TypeFrame,
			Eval: func(_ vql.Alloc, args []vql.Val) (vql.Val, error) {
				if c := canceller.Load(); c.frames.Add(1) == c.at {
					c.cancel()
				}
				return args[0], nil
			},
		})
	}
	for _, par := range []int{1, 2} {
		p := buildPlanPar(t, fmt.Sprintf(`
			timedomain range(0, 10, 1/24);
			videos { s: %q; }
			render(t) = testexec_cancel(s[t + 1/2]);`, fxSparse), par)
		if got := len(p.Segments[0].Bounds()) - 1; got != par {
			t.Fatalf("Parallelism %d: %d shards, want %d", par, got, par)
		}
		ctx, cancel := context.WithCancel(context.Background())
		c := &cancelAtFrame{at: 30, cancel: cancel}
		canceller.Store(c)
		var buf bytes.Buffer
		w, err := media.NewStreamWriter(&buf, p.Checked.Output)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ExecuteTo(ctx, p, w, Options{Parallelism: par})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Parallelism %d: cancelled run = %v, want context.Canceled", par, err)
		}
		// Each worker finishes the frame it was in when the cancel landed.
		if got, most := c.frames.Load(), c.at+int64(par); got > most {
			t.Errorf("Parallelism %d: %d frames rendered after a cancel at frame %d, want at most %d", par, got, c.at, most)
		}
	}
}

// TestSingleShardSegmentsDecodeOnce runs two unaligned one-shard render
// segments with caches off: however many workers the run may use, each
// segment is one runner reading forward, so it decodes exactly what the
// one-worker run decodes — never once more per output GOP.
func TestSingleShardSegmentsDecodeOnce(t *testing.T) {
	src := fmt.Sprintf(`
		timedomain range(0, 4, 1/24);
		videos { v: %q; }
		render(t) = match t {
			t in range(0, 2, 1/24) => grade(v[t + 7/24], 5, 1.0, 1.0),
			t in range(2, 4, 1/24) => blur(v[t - 2 + 7/24], 1.0),
		};`, fxVid)
	decodes := func(par int) int64 {
		p := buildPlanSrc(t, src, true)
		if len(p.Segments) != 2 {
			t.Fatalf("plan has %d segments, want 2", len(p.Segments))
		}
		_, m := streamPackets(t, p, Options{Parallelism: par})
		return m.Source.FramesDecoded
	}
	one := decodes(1)
	// 7 throwaway frames to roll forward from the keyframe, then 48 taps.
	if one != 2*(7+48) {
		t.Errorf("Parallelism 1 decoded %d source frames, want %d", one, 2*(7+48))
	}
	for _, par := range []int{2, 8} {
		if got := decodes(par); got > one {
			t.Errorf("Parallelism %d decoded %d source frames, more than Parallelism 1's %d", par, got, one)
		}
	}
}

// TestDeliveredShardKeepsPacketsOnlyForCacheFill renders and delivers a
// sharded render unit and checks what its shards hold afterwards: with the
// result cache off no packet (each went to the sink, and holding it would
// pin the whole encoded output until the run returns), with it on every
// packet, for resolve's fill.
func TestDeliveredShardKeepsPacketsOnlyForCacheFill(t *testing.T) {
	p := buildPlan(t, `render(t) = blur(v[t], 1);`, false)
	p.Segments[0].Cuts = []int{24}
	for _, tc := range []struct {
		name  string
		cache *media.Cache
		keep  bool
	}{
		{"cache-off", nil, false},
		{"cache-on", media.NewCache(-1, 64<<20, 1), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			w, err := media.NewStreamWriter(&out, p.Checked.Output)
			if err != nil {
				t.Fatal(err)
			}
			x := &run{p: p, o: Options{Parallelism: 1, Cache: tc.cache}, m: &Metrics{}, rec: obs.NewRecorder(), w: w}
			x.srcs = newSources(p.Checked)
			defer x.srcs.close()
			x.sem = make(chan struct{}, 1)
			x.abort = make(chan struct{})
			u := x.buildUnits()[0]
			if (u.key != "") != tc.keep {
				t.Fatalf("unit key %q with cache %v", u.key, tc.cache)
			}
			if u.key != "" {
				close(u.decided) // a miss: deliver drains the shards
			}
			for _, sh := range u.shards {
				x.sem <- struct{}{} // the token render frees
				x.render(context.Background(), u, sh)
			}
			x.deliver(u)
			if x.err != nil {
				t.Fatal(x.err)
			}
			if len(u.shards) != 2 {
				t.Fatalf("%d shards, want 2", len(u.shards))
			}
			for _, sh := range u.shards {
				want := 0
				if tc.keep {
					want = sh.hi - sh.lo
				}
				if len(sh.pkts) != want {
					t.Errorf("shard [%d,%d) holds %d packets after delivery, want %d", sh.lo, sh.hi, len(sh.pkts), want)
				}
			}
			if n := x.rec.Work().FramesEncoded; n != 48 {
				t.Errorf("encoded %d frames, want 48", n)
			}
		})
	}
}
