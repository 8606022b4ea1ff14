package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"v2v/internal/baseline"
	"v2v/internal/container"
	"v2v/internal/data"
	"v2v/internal/dataset"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/opt"
	"v2v/internal/plan"
	"v2v/internal/rational"
	"v2v/internal/sqlmini"
	"v2v/internal/vql"
)

var (
	fxDir    string
	fxVid    string // tiny: 24fps, GOP 1s
	fxVid2   string
	fxSparse string // GOP 10s
	fxAnn    string // annotations for fxVid
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "v2v-core-")
	if err != nil {
		panic(err)
	}
	fxDir = dir
	p := dataset.TinyProfile()
	fxVid = filepath.Join(dir, "a.vmf")
	fxAnn = filepath.Join(dir, "a.boxes.json")
	if _, err := dataset.Generate(fxVid, fxAnn, p, rational.FromInt(6)); err != nil {
		panic(err)
	}
	p2 := p
	p2.Seed = 77
	fxVid2 = filepath.Join(dir, "b.vmf")
	if _, err := dataset.Generate(fxVid2, "", p2, rational.FromInt(6)); err != nil {
		panic(err)
	}
	sp := p
	sp.GOPSeconds = rational.FromInt(10)
	fxSparse = filepath.Join(dir, "sparse.vmf")
	if _, err := dataset.Generate(fxSparse, "", sp, rational.FromInt(6)); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func specSrc(body string) string {
	return fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; w: %q; s: %q; }
		data { bb: %q; }
		%s`, fxVid, fxVid2, fxSparse, fxAnn, body)
}

// readFrames decodes all frames of a VMF file.
func readFrames(t *testing.T, path string) []*frame.Frame {
	t.Helper()
	r, err := media.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := make([]*frame.Frame, r.NumFrames())
	for i := range out {
		fr, err := r.FrameAtIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fr.Clone()
	}
	return out
}

// stamps extracts the frame-ID of every frame.
func stamps(t *testing.T, frames []*frame.Frame) []uint32 {
	t.Helper()
	out := make([]uint32, len(frames))
	for i, fr := range frames {
		id, ok := frame.ReadStamp(fr)
		if !ok {
			t.Fatalf("frame %d carries no stamp", i)
		}
		out[i] = id
	}
	return out
}

// synth runs the pipeline on src with the given options.
func synth(t *testing.T, src, name string, o Options) *Result {
	t.Helper()
	out := filepath.Join(t.TempDir(), name)
	res, err := SynthesizeSource(src, out, o)
	if err != nil {
		t.Fatalf("synthesize %s: %v", name, err)
	}
	return res
}

// assertEquivalent synthesizes src unoptimized and optimized and verifies
// both outputs are pixel-identical (the codec is lossless at Q=1).
func assertEquivalent(t *testing.T, src string) (unopt, opted *Result) {
	t.Helper()
	u := synth(t, src, "unopt.vmf", Options{})
	o := synth(t, src, "opt.vmf", DefaultOptions())
	fu := readFrames(t, u.OutPath)
	fo := readFrames(t, o.OutPath)
	if len(fu) != len(fo) {
		t.Fatalf("frame counts: unopt %d vs opt %d", len(fu), len(fo))
	}
	for i := range fu {
		if !fu[i].Equal(fo[i]) {
			t.Fatalf("frame %d differs between unoptimized and optimized plans", i)
		}
	}
	return u, o
}

func TestQ1StyleClipEquivalence(t *testing.T) {
	// Clip 1 second starting at t=1 (keyframe-aligned in v).
	src := specSrc(`render(t) = v[t + 1];`)
	u, o := assertEquivalent(t, src)
	got := stamps(t, readFrames(t, o.OutPath))
	for i, id := range got {
		if id != uint32(24+i) {
			t.Fatalf("frame %d stamp = %d, want %d", i, id, 24+i)
		}
	}
	// The optimized plan must be a pure copy: zero encodes, zero decodes.
	if o.Metrics.TotalEncodes() != 0 || o.Metrics.TotalDecodes() != 0 {
		t.Errorf("optimized clip did work: enc=%d dec=%d", o.Metrics.TotalEncodes(), o.Metrics.TotalDecodes())
	}
	if o.Metrics.Output.PacketsCopied != 48 {
		t.Errorf("copied = %d", o.Metrics.Output.PacketsCopied)
	}
	// The unoptimized plan decodes and encodes everything.
	if u.Metrics.TotalEncodes() == 0 || u.Metrics.TotalDecodes() == 0 {
		t.Error("unoptimized plan should decode and encode")
	}
}

func TestSmartCutEquivalence(t *testing.T) {
	// Mid-GOP clip: smart cut re-encodes only the head.
	src := specSrc(`render(t) = v[t + 31/24];`)
	_, o := assertEquivalent(t, src)
	got := stamps(t, readFrames(t, o.OutPath))
	for i, id := range got {
		if id != uint32(31+i) {
			t.Fatalf("frame %d stamp = %d, want %d", i, id, 31+i)
		}
	}
	// Head is frames 31..47 (17 frames) until keyframe 48.
	if enc := o.Metrics.TotalEncodes(); enc != 17 {
		t.Errorf("smart cut encodes = %d, want 17", enc)
	}
	if o.Metrics.Output.PacketsCopied != 48-17 {
		t.Errorf("copied = %d, want 31", o.Metrics.Output.PacketsCopied)
	}
}

func TestSparseKeyframesFallBack(t *testing.T) {
	// Q1-on-ToS: no keyframes in range, optimized == unoptimized plan
	// shape (both render).
	src := specSrc(`render(t) = s[t + 1/24];`)
	u, o := assertEquivalent(t, src)
	if o.Plan.Segments[0].Kind != plan.SegFrames {
		t.Error("sparse source should stay a render segment")
	}
	// Both plans decode the same source frames — exactly what they
	// estimate: 48 and the frame before them, plus, where the optimized
	// plan was cut (it is at two or more cores), the cut's roll-forward.
	for name, r := range map[string]*Result{"unoptimized": u, "optimized": o} {
		if est, got := r.Plan.EstimatedCost().DecodeFrames, r.Metrics.Source.FramesDecoded; got != est {
			t.Errorf("%s plan decoded %d source frames, estimated %d", name, got, est)
		}
	}
	if got := u.Metrics.Source.FramesDecoded; got != 49 {
		t.Errorf("unoptimized plan decoded %d source frames, want 49", got)
	}
}

func TestQ2StyleSpliceEquivalence(t *testing.T) {
	// Splice 4 half-second clips, all keyframe-aligned.
	src := specSrc(`render(t) = match t {
		t in range(0, 1/2, 1/24) => v[t + 1],
		t in range(1/2, 1, 1/24) => w[t - 1/2],
		t in range(1, 3/2, 1/24) => v[t + 2],
		t in range(3/2, 2, 1/24) => w[t + 1/2],
	};`)
	_, o := assertEquivalent(t, src)
	got := stamps(t, readFrames(t, o.OutPath))
	want := make([]uint32, 0, 96)
	for i := 0; i < 12; i++ {
		want = append(want, uint32(24+i))
	}
	for i := 0; i < 12; i++ {
		want = append(want, uint32(i))
	}
	for i := 0; i < 12; i++ {
		want = append(want, uint32(72+i))
	}
	for i := 0; i < 12; i++ {
		want = append(want, uint32(48+i))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d stamp = %d, want %d", i, got[i], want[i])
		}
	}
	// Half-second clips start at keyframes every second only for the
	// integer-second offsets; others smart-cut. Either way copies happen.
	if o.Metrics.Output.PacketsCopied == 0 {
		t.Error("optimized splice should copy packets")
	}
}

func TestQ3StyleGridEquivalence(t *testing.T) {
	src := specSrc(`render(t) = grid(v[t], w[t], v[t + 1], w[t + 1]);`)
	u, o := assertEquivalent(t, src)
	// Optimized plan avoids the intermediate materializations.
	if o.Metrics.Intermediate.FramesEncoded != 0 {
		t.Errorf("optimized grid materialized %d frames", o.Metrics.Intermediate.FramesEncoded)
	}
	if u.Metrics.Intermediate.FramesEncoded == 0 {
		t.Error("unoptimized grid should materialize operator boundaries")
	}
}

func TestQ4StyleBlurEquivalence(t *testing.T) {
	src := specSrc(`render(t) = blur(v[t], 1.2);`)
	assertEquivalent(t, src)
}

// TestFusedPointOpChainEquivalence runs a chain of point ops (crossfade
// -> wipe -> grade, with secondary-frame inputs) end to end: the optimized
// plan merges it into one node, which the evaluator runs in one pass, and
// its output must be pixel-identical to the unoptimized run, where each op
// is its own node.
func TestFusedPointOpChainEquivalence(t *testing.T) {
	src := specSrc(`render(t) = grade(wipe(crossfade(v[t], w[t], 2/5), w[t], 3/5), -8, 12/10, 9/10);`)
	u, o := assertEquivalent(t, src)
	for _, tc := range []struct {
		name string
		r    *Result
		want int
	}{{"optimized", o, 1}, {"unoptimized", u, 6}} {
		for _, s := range tc.r.Plan.Segments {
			if s.Kind != plan.SegFrames || s.Root == nil {
				continue
			}
			if n := s.Root.CountOps(); n != tc.want {
				t.Errorf("%s plan segment has %d nodes, want %d", tc.name, n, tc.want)
			}
		}
	}
}

// TestFusedChainInsideNonFusableOpEquivalence checks a chain that feeds a
// transform with no point-op form (grid).
func TestFusedChainInsideNonFusableOpEquivalence(t *testing.T) {
	src := specSrc(`render(t) = grid(grade(grade(v[t], 10, 11/10, 1), -5, 9/10, 12/10), w[t], v[t + 1], w[t + 1]);`)
	assertEquivalent(t, src)
}

func TestQ5StyleBoxesEquivalence(t *testing.T) {
	src := specSrc(`render(t) = boxes(v[t], bb[t]);`)
	u := synth(t, src, "unopt.vmf", Options{})
	o := synth(t, src, "opt.vmf", DefaultOptions())
	fu, fo := readFrames(t, u.OutPath), readFrames(t, o.OutPath)
	if len(fu) != len(fo) {
		t.Fatalf("frame counts differ")
	}
	for i := range fu {
		if !fu[i].Equal(fo[i]) {
			t.Fatalf("frame %d differs (data-aware rewrite broke equivalence)", i)
		}
	}
	// The tiny profile has objects on half the frames; the rewrite should
	// have split arms and enabled copies on the object-free stretches.
	if o.RewriteStats.Skipped || o.RewriteStats.ArmsAfter < 2 {
		t.Errorf("rewrite stats = %+v", o.RewriteStats)
	}
	if o.Metrics.Output.PacketsCopied == 0 {
		t.Error("object-free stretches should stream-copy")
	}
	// Without the data rewrite, no copies are possible (boxes() wraps
	// every frame).
	oNoRewrite := synth(t, src, "opt-norewrite.vmf", Options{Optimize: true})
	if oNoRewrite.Metrics.Output.PacketsCopied != 0 {
		t.Error("without data rewrite there should be no copies")
	}
}

// An annotation file rewritten in place between two runs through one
// cache is parsed again, and its new boxes reach the output: the cached
// array is keyed by the file's content, never by its path.
func TestDataCacheRewrittenFileNotServed(t *testing.T) {
	ann := filepath.Join(t.TempDir(), "mut.boxes.json")
	orig, err := os.ReadFile(fxAnn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ann, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		data { bb: %q; }
		render(t) = boxes(v[t], bb[t]);`, fxVid, ann)
	output := func(name string, o Options) []byte {
		t.Helper()
		b, err := os.ReadFile(synth(t, src, name, o).OutPath)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	o := DefaultOptions()
	o.Cache = media.NewCache(-1, 0, 1)
	before := output("before.vmf", o)

	// Rewrite the file in place: every box moves 4 pixels right.
	arr, err := data.LoadJSON(ann)
	if err != nil {
		t.Fatal(err)
	}
	var moved []data.Entry
	for _, e := range arr.Entries() {
		if len(e.V.Boxes) > 0 {
			bs := slices.Clone(e.V.Boxes)
			for i := range bs {
				bs[i].X += 4
			}
			e.V = vql.BoxesV(bs)
		}
		moved = append(moved, e)
	}
	shifted, err := data.NewArray(moved)
	if err != nil {
		t.Fatal(err)
	}
	if err := shifted.SaveJSON(ann); err != nil {
		t.Fatal(err)
	}

	after := output("after.vmf", o)
	if bytes.Equal(after, before) {
		t.Error("the rewritten annotations served the stale cached array")
	}
	if st := o.Cache.Stats(media.KindData); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("data stats = %+v, want both contents parsed", st)
	}
	// Ground truth: an uncached run over the new file matches.
	if clean := output("clean.vmf", DefaultOptions()); !bytes.Equal(after, clean) {
		t.Error("cached-path output over the rewritten file differs from an uncached run")
	}
}

func TestIfThenElseDataRewriteEndToEnd(t *testing.T) {
	// Paper §IV-C shape: condition from SQL data selects between videos.
	db := sqlmini.NewDB()
	db.CreateTable("sel", []sqlmini.Column{
		{Name: "ts", Type: vql.TypeNum},
		{Name: "usea", Type: vql.TypeBool},
	})
	for i := 0; i < 48; i++ {
		db.Insert("sel", []vql.Val{
			vql.NumV(rational.New(int64(i), 24)),
			vql.BoolV(i < 24),
		})
	}
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; w: %q; }
		sql { usea: "SELECT ts, usea FROM sel"; }
		render(t) = ifthenelse(usea[t], v[t], w[t]);`, fxVid, fxVid2)
	o := synth(t, src, "ite.vmf", Options{Optimize: true, DataRewrite: true, DB: db})
	// Both halves are plain clips post-rewrite -> all 48 frames copy
	// (first second from v, second second from w, both keyframe-aligned).
	if o.Metrics.Output.PacketsCopied != 48 {
		t.Errorf("copied = %d, want 48", o.Metrics.Output.PacketsCopied)
	}
	got := stamps(t, readFrames(t, o.OutPath))
	if len(got) != 48 {
		t.Fatalf("frames = %d, want 48", len(got))
	}
	for i := 0; i < 48; i++ {
		if got[i] != uint32(i) {
			t.Fatalf("frame %d stamp = %d, want %d", i, got[i], i)
		}
	}
	// Equivalence against the unrewritten, unoptimized run.
	u := synth(t, src, "ite-unopt.vmf", Options{DB: db})
	fu, fo := readFrames(t, u.OutPath), readFrames(t, o.OutPath)
	for i := range fu {
		if !fu[i].Equal(fo[i]) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

// TestExactSQLNumberSelectsCopy: a SQL value 1/3 equals the literal 1/3 in
// the rewriter, the engine and the baseline alike, so the optimized plan
// stream-copies every packet and all three outputs are the same frames.
func TestExactSQLNumberSelectsCopy(t *testing.T) {
	db := sqlmini.NewDB()
	db.CreateTable("d", []sqlmini.Column{{Name: "ts", Type: vql.TypeNum}, {Name: "v", Type: vql.TypeNum}})
	for i := 0; i < 24; i++ {
		db.Insert("d", []vql.Val{vql.NumV(rational.New(int64(i), 24)), vql.NumV(rational.New(1, 3))})
	}
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; }
		sql { d: "SELECT ts, v FROM d"; }
		render(t) = ifthenelse(d[t] == 1/3, v[t], edges(v[t]));`, fxVid)
	o := synth(t, src, "exact-opt.vmf", Options{Optimize: true, DataRewrite: true, DB: db})
	if out := o.Metrics.Output; out.PacketsCopied != 24 || out.FramesEncoded != 0 {
		t.Errorf("optimized output: copied=%d encoded=%d, want 24 and 0", out.PacketsCopied, out.FramesEncoded)
	}
	u := synth(t, src, "exact-unopt.vmf", Options{DB: db})
	b := filepath.Join(t.TempDir(), "exact-baseline.vmf")
	if _, err := baseline.RunSource(src, b, db); err != nil {
		t.Fatal(err)
	}
	fo := readFrames(t, o.OutPath)
	for name, path := range map[string]string{"unoptimized": u.OutPath, "baseline": b} {
		f := readFrames(t, path)
		if len(f) != len(fo) {
			t.Fatalf("%s: %d frames, optimized %d", name, len(f), len(fo))
		}
		for i := range f {
			if !f[i].Equal(fo[i]) {
				t.Fatalf("%s: frame %d differs from the optimized output", name, i)
			}
		}
	}
	// Every frame is v's own: the then branch held for all of them.
	for i, id := range stamps(t, fo) {
		if id != uint32(i) {
			t.Fatalf("frame %d stamp = %d, want %d", i, id, i)
		}
	}
}

func TestExplicitOutputScales(t *testing.T) {
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; }
		output { width: 64; height: 48; fps: 24; }
		render(t) = v[t];`, fxVid)
	o := synth(t, src, "scaled.vmf", DefaultOptions())
	r, err := media.OpenReader(o.OutPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Info().Width != 64 || r.Info().Height != 48 {
		t.Errorf("output dims = %dx%d", r.Info().Width, r.Info().Height)
	}
	if r.NumFrames() != 24 {
		t.Errorf("frames = %d", r.NumFrames())
	}
	if o.Metrics.Output.PacketsCopied != 0 {
		t.Error("scaled output cannot copy packets")
	}
}

func TestParallelShardsMatchSequential(t *testing.T) {
	src := specSrc(`render(t) = blur(v[t], 1.0);`)
	seq := synth(t, src, "seq.vmf", Options{Optimize: true, Parallelism: 1})
	par := synth(t, src, "par.vmf", Options{Optimize: true, Parallelism: 4})
	fs, fp := readFrames(t, seq.OutPath), readFrames(t, par.OutPath)
	if len(fs) != len(fp) {
		t.Fatalf("counts differ: %d vs %d", len(fs), len(fp))
	}
	for i := range fs {
		if !fs[i].Equal(fp[i]) {
			t.Fatalf("frame %d differs between sequential and parallel execution", i)
		}
	}
}

// TestPlanShapeIndependentOfHost: with an explicit Parallelism, the plan —
// how many segments are sharded, where they are cut, and every line
// EXPLAIN prints — is the same whatever GOMAXPROCS says. The only consumer of GOMAXPROCS is
// Options.resolved, which an explicit value bypasses.
func TestPlanShapeIndependentOfHost(t *testing.T) {
	s, err := vql.Parse(specSrc(`render(t) = blur(v[t], 1.0);`))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type shape struct {
		sharded int
		cuts    string
		explain string
	}
	planAt := func(procs, parallelism int) shape {
		runtime.GOMAXPROCS(procs)
		p, _, st, err := Plan(s, Options{Optimize: true, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return shape{st.ShardedSegs, fmt.Sprint(p.Segments[0].Cuts), p.Explain()}
	}
	for _, par := range []int{1, 2, 4} {
		if one, eight := planAt(1, par), planAt(8, par); one != eight {
			t.Errorf("Parallelism %d: plan differs between GOMAXPROCS 1 and 8:\n%+v\nvs\n%+v", par, one, eight)
		}
	}
	if got := planAt(1, 2); got.sharded != 1 || got.cuts == "[]" {
		t.Errorf("Parallelism 2 sharded %d segments at %s, want 1 with a cut (the test must see sharding to mean anything)", got.sharded, got.cuts)
	}
	// Zero still means "every core", and that is the one thing GOMAXPROCS
	// decides.
	if one, two := planAt(1, 0).sharded, planAt(2, 0).sharded; one != 0 || two != 1 {
		t.Errorf("Parallelism 0 sharded %d segments at GOMAXPROCS 1 and %d at 2, want 0 and 1", one, two)
	}
}

func TestAblationPassCombinations(t *testing.T) {
	// Every single-pass configuration must still produce correct output.
	src := specSrc(`render(t) = match t {
		t in range(0, 1, 1/24) => v[t + 1],
		t in range(1, 2, 1/24) => blur(zoom(w[t - 1], 2), 1.0),
	};`)
	ref := synth(t, src, "ref.vmf", Options{})
	refFrames := readFrames(t, ref.OutPath)
	passSets := map[string]opt.Options{
		"copy-only":  {StreamCopy: true},
		"smart-only": {SmartCut: true},
		"merge-only": {MergeFilters: true},
		"shard-only": {Shard: true},
		"seg-only":   {MergeSegments: true},
	}
	for name, passes := range passSets {
		passes := passes
		res := synth(t, src, name+".vmf", Options{Optimize: true, OptPasses: &passes})
		got := readFrames(t, res.OutPath)
		if len(got) != len(refFrames) {
			t.Fatalf("%s: counts differ", name)
		}
		for i := range got {
			if !got[i].Equal(refFrames[i]) {
				t.Fatalf("%s: frame %d differs", name, i)
			}
		}
	}
}

func TestPlanOnlyEntryPoint(t *testing.T) {
	s, err := vql.Parse(specSrc(`render(t) = v[t + 1];`))
	if err != nil {
		t.Fatal(err)
	}
	p, _, oStats, err := Plan(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Optimized || oStats.Copies != 1 {
		t.Errorf("plan = optimized %v, stats %+v", p.Optimized, oStats)
	}
	if p.Explain() == "" || p.DOT() == "" {
		t.Error("explain output empty")
	}
}

// TestPlanOpensEachSourceOnce: the front end opens each source's file
// once, in check; the rewriter, the planner and the optimizer read the
// index that open loaded.
func TestPlanOpensEachSourceOnce(t *testing.T) {
	s, err := vql.Parse(specSrc(`render(t) = match t {
		t in range(0, 1/2, 1/24) => v[t + 1],
		t in range(1/2, 1, 1/24) => w[t - 1/3],
		t in range(1, 2, 1/24) => blur(s[t], 1),
	};`))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	opens := map[string]int{}
	container.SetFileWrapper(func(path string, f container.File) container.File {
		mu.Lock()
		opens[path]++
		mu.Unlock()
		return f
	})
	defer container.SetFileWrapper(nil)
	o := DefaultOptions()
	o.Parallelism = 2
	_, _, oStats, err := Plan(s, o)
	if err != nil {
		t.Fatal(err)
	}
	if oStats.Copies+oStats.SmartCuts == 0 {
		t.Error("no copy planned; the optimizer never needed the keyframe index")
	}
	want := map[string]int{fxVid: 1, fxVid2: 1, fxSparse: 1}
	if fmt.Sprint(opens) != fmt.Sprint(want) {
		t.Errorf("opens = %v, want %v", opens, want)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := SynthesizeSource("not a spec", "/tmp/x.vmf", Options{}); err == nil {
		t.Error("bad source should fail")
	}
	src := specSrc(`render(t) = v[t + 100];`) // out of range
	if _, err := SynthesizeSource(src, filepath.Join(t.TempDir(), "x.vmf"), Options{}); err == nil {
		t.Error("failing check should fail")
	}
}

func TestFig2PlanShapes(t *testing.T) {
	// The paper's Fig. 2 spec: a simple clip spliced with a 2x2 grid
	// spliced with a simple filter (specs Q1, Q3, Q4). The optimized plan
	// applies a smart cut to the clip, pulls clips into the grid filter,
	// and shards the last filter.
	src := fmt.Sprintf(`
	timedomain range(0, 4, 1/24);
	videos { v: %q; w: %q; }
	render(t) = match t {
		t in range(0, 1, 1/24) => v[t + 31/24],
		t in range(1, 2, 1/24) => grid(v[t], w[t], v[t + 1], w[t + 1]),
		t in range(2, 4, 1/24) => blur(v[t], 1.0),
	};`, fxVid, fxVid2)
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	unopt, _, _, err := Plan(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(unopt.Segments) != 3 {
		t.Fatalf("unopt segments = %d", len(unopt.Segments))
	}
	for _, seg := range unopt.Segments {
		if seg.Kind != plan.SegFrames {
			t.Error("unoptimized plan must render everything")
		}
	}
	opted, _, _, err := Plan(s, Options{Optimize: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(opted.Segments) != 4 {
		t.Fatalf("optimized segments = %d, want the smart cut's head and copy, the grid, the filter", len(opted.Segments))
	}
	if head, tail := opted.Segments[0], opted.Segments[1]; head.Kind != plan.SegFrames || head.FrameCount() != 17 ||
		tail.Kind != plan.SegCopy || tail.From != 48 || tail.To != 55 {
		t.Errorf("segments 0,1 = %v %d frames, %v [%d,%d); want a 17-frame head and a copy of [48,55)",
			head.Kind, head.FrameCount(), tail.Kind, tail.From, tail.To)
	}
	if opted.Segments[2].Kind != plan.SegFrames || opted.Segments[2].Root.CountOps() != 1 {
		t.Error("grid should merge into one filter")
	}
	if len(opted.Segments[3].Cuts) == 0 {
		t.Error("filter segment has no cuts, want parallel split")
	}
}
