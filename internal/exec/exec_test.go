package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"v2v/internal/check"
	"v2v/internal/dataset"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/opt"
	"v2v/internal/plan"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

var (
	fxVid    string    // tiny profile: 24 fps, GOP 24 (1 s), 4 s
	fxSparse string    // tiny profile with 10 s GOPs (ToS-like), 42 s
	fxMore   [3]string // three more videos like fxVid (a KABR-like grid reads four)
	// fxBoxes is fxVid's content with a keyframe every 16 frames, so the
	// object-free seconds the annotations in fxBoxesAnn leave ([1,2) and
	// [3,4)) start mid-GOP: the data rewrite turns them into smart cuts.
	fxBoxes, fxBoxesAnn string
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(killChildEnv); dir != "" {
		os.Exit(killMidWriteChild(dir))
	}
	dir, err := os.MkdirTemp("", "v2v-exec-")
	if err != nil {
		panic(err)
	}
	fxVid = filepath.Join(dir, "a.vmf")
	if _, err := dataset.Generate(fxVid, "", dataset.TinyProfile(), rational.FromInt(4)); err != nil {
		panic(err)
	}
	// ToS-like: 10 s GOPs, so a keyframe every 240 frames only and every
	// output that inherits the format has a GOP longer than most renders.
	sparse := dataset.TinyProfile()
	sparse.GOPSeconds = rational.FromInt(10)
	fxSparse = filepath.Join(dir, "sparse.vmf")
	if _, err := dataset.Generate(fxSparse, "", sparse, rational.FromInt(42)); err != nil {
		panic(err)
	}
	for i := range fxMore {
		fxMore[i] = filepath.Join(dir, fmt.Sprintf("more%d.vmf", i))
		if _, err := dataset.Generate(fxMore[i], "", dataset.TinyProfile(), rational.FromInt(4)); err != nil {
			panic(err)
		}
	}
	offGrid := dataset.TinyProfile()
	offGrid.GOPSeconds = rational.New(2, 3)
	fxBoxes, fxBoxesAnn = filepath.Join(dir, "boxes.vmf"), filepath.Join(dir, "boxes.json")
	if _, err := dataset.Generate(fxBoxes, fxBoxesAnn, offGrid, rational.FromInt(4)); err != nil {
		panic(err)
	}
	before := runtime.NumGoroutine()
	code := m.Run()
	if !goroutinesSettle(before) {
		code = 1
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// goroutinesSettle is the package's goroutine-leak gate: every worker,
// scheduler and resolver a run starts must have exited once the tests
// are done. It waits up to 2 s for the count to fall back to n, the count
// before the tests; if it does not, it prints every goroutine's stack.
func goroutinesSettle(n int) bool {
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > n; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before\n%s\n",
				runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
			return false
		}
	}
	return true
}

// optOptions is the full optimizer pinned to one shard per segment, so the
// plan shape — and with it decode volume — does not depend on the host's
// core count. Tests that want shards cut the plan themselves (setShards) or
// run the shard pass at a fixed parallelism (buildPlanPar).
func optOptions() opt.Options {
	o := opt.Default()
	o.Parallelism = 1
	return o
}

func buildPlan(t *testing.T, body string, optimize bool) *plan.Plan {
	t.Helper()
	return buildPlanFromSource(t, fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		%s`, fxVid, body), optimize)
}

// buildPlanFromSource checks and plans a spec without the data rewrite,
// optimizing it when asked.
func buildPlanFromSource(t *testing.T, src string, optimize bool) *plan.Plan {
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

func TestExecuteMetricsUnoptimizedFilterChain(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(zoom(v[t], 2), 10, 1.1, 1.0);`, false)
	out := filepath.Join(t.TempDir(), "o.vmf")
	m, err := Execute(context.Background(), p, out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 48 output frames: 48 source decodes, 2 materialized boundaries
	// (clip, zoom) = 96 intermediate enc+dec, 48 output encodes.
	if m.Source.FramesDecoded != 48 {
		t.Errorf("source decodes = %d", m.Source.FramesDecoded)
	}
	if m.Intermediate.FramesEncoded != 96 || m.Intermediate.FramesDecoded != 96 {
		t.Errorf("intermediate = %+v", m.Intermediate)
	}
	if m.Output.FramesEncoded != 48 || m.Output.PacketsCopied != 0 {
		t.Errorf("output = %+v", m.Output)
	}
	if m.FramesRendered != 48 || m.Wall <= 0 {
		t.Errorf("metrics = %+v", m)
	}
	if m.TotalEncodes() != 96+48 || m.TotalDecodes() != 96+48 {
		t.Errorf("totals = %d enc %d dec", m.TotalEncodes(), m.TotalDecodes())
	}
}

func TestExecuteOptimizedSkipsIntermediates(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(zoom(v[t], 2), 10, 1.1, 1.0);`, true)
	out := filepath.Join(t.TempDir(), "o.vmf")
	m, err := Execute(context.Background(), p, out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Intermediate.FramesEncoded != 0 || m.Intermediate.FramesDecoded != 0 {
		t.Errorf("optimized plan materialized: %+v", m.Intermediate)
	}
}

func TestExecuteEmptySegmentTolerated(t *testing.T) {
	p := buildPlan(t, `render(t) = v[t];`, false)
	// Inject an empty frame segment; execution should skip it.
	empty := &plan.Segment{
		Times: rational.NewRange(rational.FromInt(9), rational.FromInt(9), rational.New(1, 24)),
		Kind:  plan.SegFrames,
		Root:  p.Segments[0].Root,
	}
	p.Segments = append(p.Segments, empty)
	out := filepath.Join(t.TempDir(), "o.vmf")
	m, err := Execute(context.Background(), p, out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.FramesRendered != 48 {
		t.Errorf("rendered = %d", m.FramesRendered)
	}
}

func TestExecuteUnknownVideoInPlan(t *testing.T) {
	p := buildPlan(t, `render(t) = v[t];`, false)
	p.Segments[0].Root = &plan.Node{Clip: &plan.Clip{Video: "ghost", Index: vql.TimeVar{}}}
	if _, err := Execute(context.Background(), p, filepath.Join(t.TempDir(), "o.vmf"), Options{}); err == nil {
		t.Error("unknown video should fail")
	}
	// Copy segment with unknown video.
	p2 := buildPlan(t, `render(t) = v[t];`, false)
	p2.Segments[0].Kind = plan.SegCopy
	p2.Segments[0].Video = "ghost"
	if _, err := Execute(context.Background(), p2, filepath.Join(t.TempDir(), "o2.vmf"), Options{}); err == nil {
		t.Error("unknown copy video should fail")
	}
}

func TestExecuteBadOutputPath(t *testing.T) {
	p := buildPlan(t, `render(t) = v[t];`, false)
	if _, err := Execute(context.Background(), p, "/nonexistent-dir/x.vmf", Options{}); err == nil {
		t.Error("bad output path should fail")
	}
}

func TestExecuteParallelismCap(t *testing.T) {
	p := buildPlan(t, `render(t) = blur(v[t], 1.0);`, true)
	setShards(p, 8)
	out := filepath.Join(t.TempDir(), "o.vmf")
	m, err := Execute(context.Background(), p, out, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.FramesRendered != 48 {
		t.Errorf("rendered = %d", m.FramesRendered)
	}
	r, err := media.OpenReader(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumFrames() != 48 {
		t.Errorf("frames = %d", r.NumFrames())
	}
}

func TestExecuteShardKeyframeCadence(t *testing.T) {
	// Sharded output must still start every shard chunk at a keyframe so
	// the result is decodable; chunks are GOP-aligned.
	p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, true)
	setShards(p, 2)
	out := filepath.Join(t.TempDir(), "o.vmf")
	if _, err := Execute(context.Background(), p, out, Options{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	r, err := media.OpenReader(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Keyframes every 24 frames (tiny profile GOP).
	for i := 0; i < r.NumFrames(); i++ {
		wantKey := i%24 == 0
		if got := r.Container().Record(i).Key; got != wantKey {
			t.Fatalf("packet %d key = %v, want %v", i, got, wantKey)
		}
	}
	// Fully decodable.
	for i := 0; i < r.NumFrames(); i++ {
		if _, err := r.FrameAtIndex(i); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
	}
}

func TestCursorsReuseUnderInterleavedTaps(t *testing.T) {
	// grid over 4 offsets of the same video: with cursor pooling every tap
	// decodes its stream once, not a GOP per output frame.
	p := buildPlan(t, `render(t) = grid(v[t], v[t + 1/2], v[t + 1], v[t + 3/2]);`, true)
	out := filepath.Join(t.TempDir(), "o.vmf")
	m, err := Execute(context.Background(), p, out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 taps each covering 48 frames once, plus the roll-forward of the two
	// that start half a GOP in — taps sharing a GOP keep their own cursors.
	if want := int64(4*48 + 2*12); m.Source.FramesDecoded != want {
		t.Errorf("interleaved taps decoded %d frames, want %d", m.Source.FramesDecoded, want)
	}
}

// registerPanicUDF registers a frame->frame transform that panics,
// skipping the registration if an earlier run of the same process (e.g.
// go test -count=N) already did it.
func registerPanicUDF(name string) {
	if _, ok := vql.Lookup(name); ok {
		return
	}
	vql.Register(&vql.Transform{
		Name:   name,
		Params: []vql.Type{vql.TypeFrame},
		Result: vql.TypeFrame,
		Eval: func(vql.Alloc, []vql.Val) (vql.Val, error) {
			panic("boom")
		},
	})
}

func TestRenderPanicBecomesError(t *testing.T) {
	// A panicking transform (registered here as a UDF) must fail the run
	// with an error, not crash the process.
	registerPanicUDF("testexec_panic")
	p := buildPlan(t, `render(t) = testexec_panic(v[t]);`, true)
	if _, err := Execute(context.Background(), p, filepath.Join(t.TempDir(), "o.vmf"), Options{}); err == nil {
		t.Fatal("panicking transform should surface as an error")
	}
	// Parallel shards too.
	p2 := buildPlan(t, `render(t) = testexec_panic(v[t]);`, true)
	setShards(p2, 2)
	if _, err := Execute(context.Background(), p2, filepath.Join(t.TempDir(), "o2.vmf"), Options{Parallelism: 2}); err == nil {
		t.Fatal("panicking shard should surface as an error")
	}
}

func TestExecuteRecordsSegmentActualsAndShardSpans(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, true)
	setShards(p, 2)
	tr := obs.NewTrace("test")
	out := filepath.Join(t.TempDir(), "o.vmf")
	m, err := Execute(context.Background(), p, out, Options{Parallelism: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}

	// Per-segment actuals, index-aligned with the plan.
	if len(m.Segments) != len(p.Segments) {
		t.Fatalf("actuals = %d segments, plan has %d", len(m.Segments), len(p.Segments))
	}
	act := m.Segments[0]
	if act.Wall <= 0 {
		t.Errorf("actual wall = %v", act.Wall)
	}
	if act.FramesRendered != 48 || act.FramesEncoded != 48 {
		t.Errorf("actuals = %+v", act)
	}
	if act.Shards != 2 {
		t.Errorf("actual shards = %d", act.Shards)
	}
	// EXPLAIN prints the cuts with each shard's estimated roll-forward,
	// ANALYZE the decodes measured beside it.
	if s := p.ExplainAnalyze(m.Segments); !strings.Contains(s, "actual:") ||
		!strings.Contains(s, "cuts=[0,24,48) roll=[0,0]") ||
		!strings.Contains(s, "shards=2 decoded/shard=[24 24]") {
		t.Errorf("ExplainAnalyze:\n%s", s)
	}

	// The trace holds the execute span, one segment span, and one span per
	// shard worker on its own thread row.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	shardTIDs := map[int64]bool{}
	var haveExec, haveSeg bool
	for _, e := range doc.TraceEvents {
		switch {
		case e.Name == "execute":
			haveExec = true
		case strings.HasPrefix(e.Name, "segment[0]"):
			haveSeg = true
		case strings.HasPrefix(e.Name, "shard["):
			shardTIDs[e.TID] = true
		}
	}
	if !haveExec || !haveSeg {
		t.Errorf("missing execute/segment spans (exec=%v seg=%v)", haveExec, haveSeg)
	}
	if len(shardTIDs) != 2 {
		t.Errorf("shard spans on %d distinct tids, want 2", len(shardTIDs))
	}
}
