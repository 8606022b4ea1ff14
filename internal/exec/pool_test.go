package exec

// Tests for the zero-allocation render loop: a point-op chain evaluated in
// one pass must be pixel-identical to plain per-op evaluation, and the
// warm steady-state render path must not allocate per frame (the frame
// pool recycles every intermediate).

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"v2v/internal/container"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/plan"
	"v2v/internal/raster"
)

// openSources opens p's sources for a segment runner built outside a run,
// closing them when the test ends.
func openSources(t *testing.T, p *plan.Plan) map[string]*container.Reader {
	t.Helper()
	srcs, err := p.Checked.OpenSources()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, r := range srcs {
			r.Close()
		}
	})
	return srcs
}

// fusedChainBody is a 3-op point-op chain over one source; fusedMixedBody
// chains three kinds of point op, two with secondary frames.
const (
	fusedChainBody = `render(t) = grade(grade(grade(v[t], 10, 11/10, 1), -5, 9/10, 12/10), 3, 1, 13/10);`
	fusedMixedBody = `render(t) = crossfade(wipe(grade(v[t], 5, 1, 1), v[t + 1], 1/2), v[t + 1/2], 1/3);`
)

// TestFusedSegmentRunnerMatchesPlain renders point-op chains through the
// optimized plan, one node whose merged expression the evaluator runs in
// one pass, and the unoptimized plan, where each op and clip is its own
// node, and requires byte-identical frames.
func TestFusedSegmentRunnerMatchesPlain(t *testing.T) {
	for _, tc := range []struct {
		body  string
		nodes int // of the unoptimized plan
	}{{fusedChainBody, 4}, {fusedMixedBody, 6}} {
		fusedPlan := buildPlan(t, tc.body, true)
		if n := fusedPlan.Segments[0].Root.CountOps(); n != 1 {
			t.Fatalf("%s: optimized plan has %d nodes, want the chain merged into 1", tc.body, n)
		}
		plainPlan := buildPlan(t, tc.body, false)
		if n := plainPlan.Segments[0].Root.CountOps(); n != tc.nodes {
			t.Fatalf("%s: unoptimized plan has %d nodes, want %d", tc.body, n, tc.nodes)
		}

		fs, ps := fusedPlan.Segments[0], plainPlan.Segments[0]
		fr := newSegmentRunner(context.Background(), fusedPlan, fs, openSources(t, fusedPlan), false, nil, nil)
		pr := newSegmentRunner(context.Background(), plainPlan, ps, openSources(t, plainPlan), false, nil, nil)
		for i := 0; i < fs.FrameCount(); i++ {
			tm := fs.Times.At(i)
			ff, err := fr.renderAt(tm)
			if err != nil {
				t.Fatalf("fused render t=%s: %v", tm, err)
			}
			pf, err := pr.renderAt(tm)
			if err != nil {
				t.Fatalf("plain render t=%s: %v", tm, err)
			}
			if !ff.Equal(pf) {
				t.Fatalf("%s: frame %d: fused output differs from plain output", tc.body, i)
			}
			ff.Release()
			pf.Release()
		}
		fr.close()
		pr.close()
	}
}

// buildPlanData is buildPlan's optimized plan with fxBoxesAnn's boxes as
// the data array bb.
func buildPlanData(t *testing.T, body string) *plan.Plan {
	t.Helper()
	return buildPlanFromSource(t, fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		data { bb: %q; }
		%s`, fxVid, fxBoxesAnn, body), true)
}

// warmLoopAllocs renders segment 0 of p once through to warm the GOP cache,
// the frame pool buckets and the per-node kernel state, then reports the
// steady-state allocations per rendered frame.
func warmLoopAllocs(t *testing.T, p *plan.Plan) float64 {
	t.Helper()
	s := p.Segments[0]
	cache := media.NewCache(256<<20, -1, 1)
	run := newSegmentRunner(context.Background(), p, s, openSources(t, p), false, cache, nil)
	defer run.close()

	frames := s.FrameCount()
	renderOne := func(i int) {
		fr, err := run.renderAt(s.Times.At(i))
		if err != nil {
			t.Fatalf("render %d: %v", i, err)
		}
		fr.Release()
	}
	for i := 0; i < frames; i++ {
		renderOne(i)
	}
	i := 0
	return testing.AllocsPerRun(200, func() {
		renderOne(i % frames)
		i++
	})
}

// TestRenderWarmLoopAllocs drives the render loop of every built-in frame
// transform, alone and in point-op chains, with a warm GOP cache and
// requires a (near-)allocation-free steady state: source frames come from
// the cache, every destination and intermediate from the frame pool, call
// arguments from the environment's reused stack, and kernels (grade LUTs,
// the blur's Gaussian) are built on the stack or in the environment's
// reused kernel scratch. Measured 0 allocs/frame; < 1 tolerates sync.Pool
// entries dropped by a mid-run GC. boxes and label are reported, not
// gated: formatting label text allocates.
func TestRenderWarmLoopAllocs(t *testing.T) {
	for _, tc := range []struct {
		name, expr string
		gated      bool
	}{
		{"zoom", `zoom(v[t], 2)`, true},
		{"blur", `blur(v[t], 1.5)`, true},
		{"sharpen", `sharpen(v[t])`, true},
		{"edges", `edges(v[t])`, true},
		{"denoise", `denoise(v[t])`, true},
		{"grade", `grade(v[t], 10, 11/10, 9/10)`, true},
		{"grid", `grid(v[t], v[t + 1], v[t + 1/2], v[t])`, true},
		{"gridn", `gridn(v[t], v[t + 1], v[t + 1/2])`, true},
		{"hstack", `hstack(v[t], v[t + 1])`, true},
		{"vstack", `vstack(v[t], v[t + 1])`, true},
		{"pip", `pip(v[t], v[t + 1], 8, 8, 4)`, true},
		{"overlay", `overlay(v[t], crop(v[t + 1], 0, 0, 32, 16), 8, 8, 160)`, true},
		{"boxes", `boxes(v[t], bb[t])`, false},
		{"label", `label(v[t], "cam", 4, 4)`, false},
		{"crossfade", `crossfade(v[t], v[t + 1], 1/3)`, true},
		{"wipe", `wipe(v[t], v[t + 1], 1/2)`, true},
		{"scale", `scale(v[t], 64, 48)`, true},
		{"crop", `crop(v[t], 2, 2, 32, 16)`, true},
		{"ifthenelse", `ifthenelse(t < 1, v[t], v[t + 1])`, true},
		{"merged", `grid(blur(v[t], 1), zoom(v[t + 1], 2), grade(v[t], 5, 1, 1), v[t])`, true},
		{"fused", fusedChainBody, true},
		{"fused-mixed", fusedMixedBody, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := tc.expr
			if !strings.HasPrefix(body, "render") {
				body = "render(t) = " + body + ";"
			}
			p := buildPlanData(t, body)
			allocs := warmLoopAllocs(t, p)
			t.Logf("%.2f allocs/frame", allocs)
			if tc.gated && allocs >= 1 && !raceEnabled {
				t.Errorf("warm %s render loop allocates %.2f allocs/frame, want < 1", tc.name, allocs)
			}
		})
	}
}

// TestBlurSegmentRunnerMatchesGaussianBlur checks the executor's pooled
// blur path against raster.GaussianBlur on the same source frames — merged
// and layered plans, a sigma that changes every frame (the kernel cache
// must follow it), and sigma 0, which passes the source frame through.
func TestBlurSegmentRunnerMatchesGaussianBlur(t *testing.T) {
	clip := buildPlan(t, `render(t) = v[t];`, false)
	src := newSegmentRunner(context.Background(), clip, clip.Segments[0], openSources(t, clip), false, nil, nil)
	defer src.close()
	for _, tc := range []struct {
		name, sigma string
		optimize    bool
		sigmaAt     func(i int) float64
	}{
		{"merged", "3/2", true, func(int) float64 { return 1.5 }},
		{"layered", "3/2", false, func(int) float64 { return 1.5 }},
		{"varying", "1/2 + t", true, func(i int) float64 { return 0.5 + float64(i)/24 }},
		{"identity", "0", true, func(int) float64 { return 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := buildPlan(t, "render(t) = blur(v[t], "+tc.sigma+");", tc.optimize)
			s := p.Segments[0]
			run := newSegmentRunner(context.Background(), p, s, openSources(t, p), false, nil, nil)
			defer run.close()
			for i := 0; i < s.FrameCount(); i++ {
				tm := s.Times.At(i)
				in, err := src.renderAt(tm)
				if err != nil {
					t.Fatal(err)
				}
				got, err := run.renderAt(tm)
				if err != nil {
					t.Fatalf("render t=%s: %v", tm, err)
				}
				if !got.Equal(raster.GaussianBlur(in, tc.sigmaAt(i))) {
					t.Fatalf("frame %d: executor blur differs from raster.GaussianBlur", i)
				}
				got.Release()
				in.Release()
			}
		})
	}
}

// TestExecuteReleasesSourceFrames: source frames are pooled, and a run
// gives back every reference it took — leaf reads, frames an expression
// taps directly (merged plans), the same source time tapped twice, a
// passthrough that returns a tap as its result, smart-cut heads. What is
// still checked out afterwards is exactly what the GOP cache holds.
func TestExecuteReleasesSourceFrames(t *testing.T) {
	live := obs.Default().Gauge("v2v_frame_pool_live_frames", "")
	for _, body := range []string{
		`render(t) = v[t + 1/2];`, // smart cut: decode and re-encode the head
		`render(t) = grid(v[t], v[t], v[t + 1], v[t + 3/2]);`,
		`render(t) = blur(blur(v[t], 0), 0);`, // identity: the source frame itself travels up
		`render(t) = crossfade(grade(v[t], 5, 1, 1), v[t + 1], 1/2);`,
		// Destinations handed out inside one merged expression: every
		// intermediate goes back to the pool, only the grid travels up.
		`render(t) = grid(blur(v[t], 1), zoom(v[t + 1], 2), grade(blur(v[t], 0), 5, 1, 1), scale(v[t + 1/2], 64, 48));`,
	} {
		for _, optimize := range []bool{false, true} {
			for _, cache := range []*media.Cache{nil, media.NewCache(64<<20, -1, 1)} {
				before := live.Value()
				p := buildPlan(t, body, optimize)
				runStream(t, p, Options{Parallelism: 2, Cache: cache})
				resident := 0
				if cache != nil {
					for _, e := range cache.Entries(media.KindGOP) {
						resident += e.Frames
					}
				}
				if got := int(live.Value() - before); got != resident {
					t.Errorf("%s (optimize=%v, cache=%v): %d pooled frames still live after the run, want the %d the cache holds",
						body, optimize, cache != nil, got, resident)
				}
			}
		}
	}
}
