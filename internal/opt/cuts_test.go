package opt

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"v2v/internal/dataset"
	"v2v/internal/plan"
	"v2v/internal/rational"
)

// benchSources are stand-ins for the benchmark's datasets with their
// timing and none of their pixels: one 50 s ToS film (24 fps, 10 s GOPs,
// boxes on every frame) and four 15 s KABR videos (30 fps, 1 s GOPs), at
// the tiny profile's frame size. Where a render is cut depends on frame
// counts, taps and keyframe positions only.
var benchSources struct {
	once         sync.Once
	tos, tosAnn  string
	kabr         [4]string
	generateFail error
}

func benchDatasets(t *testing.T) (tos, tosAnn string, kabr [4]string) {
	t.Helper()
	b := &benchSources
	b.once.Do(func() {
		dir := filepath.Dir(fxVid)
		small := func(p dataset.Profile) dataset.Profile {
			p.Width, p.Height = dataset.TinyProfile().Width, dataset.TinyProfile().Height
			return p
		}
		b.tos, b.tosAnn = filepath.Join(dir, "tos.vmf"), filepath.Join(dir, "tos.boxes.json")
		if _, err := dataset.Generate(b.tos, b.tosAnn, small(dataset.ToSProfile()), rational.FromInt(50)); err != nil {
			b.generateFail = err
			return
		}
		for i := range b.kabr {
			b.kabr[i] = filepath.Join(dir, fmt.Sprintf("kabr%d.vmf", i))
			if _, err := dataset.Generate(b.kabr[i], "", small(dataset.KABRProfile()), rational.FromInt(15)); err != nil {
				b.generateFail = err
				return
			}
		}
	})
	if b.generateFail != nil {
		t.Fatal(b.generateFail)
	}
	return b.tos, b.tosAnn, b.kabr
}

// benchSpec is the spec text bench/specs.go generates for paper query q
// (3/8 grid, 4/9 blur, 5/10 boxes; 3–5 read 2 s, 8–10 read 10 s) on
// dataset ds, reading from source frame start.
func benchSpec(t *testing.T, ds string, q, start int) string {
	t.Helper()
	tos, tosAnn, kabr := benchDatasets(t)
	fps, seconds := int64(24), 2
	if ds == "kabr" {
		fps = 30
	}
	if q > 5 {
		seconds = 10
	}
	at := func(frame int) rational.Rat { return rational.New(int64(frame), fps) }
	var sb strings.Builder
	fmt.Fprintf(&sb, "timedomain range(0, %d, 1/%d);\n", seconds, fps)
	if ds == "kabr" {
		fmt.Fprintf(&sb, "videos { vid0: %q; vid1: %q; vid2: %q; vid3: %q; }\n", kabr[0], kabr[1], kabr[2], kabr[3])
	} else {
		fmt.Fprintf(&sb, "videos { vid0: %q; }\ndata { bb0: %q; }\n", tos, tosAnn)
	}
	switch (q - 1) % 5 {
	case 2: // grid: four KABR videos at one offset, or the ToS film at four
		var taps []string
		for k := 0; k < 4; k++ {
			if ds == "kabr" {
				taps = append(taps, fmt.Sprintf("vid%d[t + %s]", k, at(start)))
			} else {
				stagger := map[int]int{2: 7, 10: 12}[seconds] * 24
				taps = append(taps, fmt.Sprintf("vid0[t + %s]", at(start+k*stagger)))
			}
		}
		fmt.Fprintf(&sb, "render(t) = grid(%s);\n", strings.Join(taps, ", "))
	case 3:
		fmt.Fprintf(&sb, "render(t) = blur(vid0[t + %s], 1.5);\n", at(start))
	case 4:
		fmt.Fprintf(&sb, "render(t) = boxes(vid0[t + %s], bb0[t + %s]);\n", at(start), at(start))
	default:
		t.Fatalf("benchSpec: Q%d is not a render query", q)
	}
	return sb.String()
}

// planFor builds src's plan and runs the whole optimizer on it at a fixed
// parallelism. (core.Plan also runs the data rewriter first; it leaves
// these specs as they are — ToS has boxes on every frame.)
func planFor(t *testing.T, src string, parallelism int) *plan.Plan {
	t.Helper()
	p := buildPlan(t, src)
	o := Default()
	o.Parallelism = parallelism
	if _, err := Optimize(p, o); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShardCuts pins where the shard pass cuts the benchmark's render
// shapes — ToS reads starting 60 and 75 frames into a 240-frame GOP, KABR
// reads 12 into a 30-frame one: the ends and middle of the windows
// bench/specs.go draws from — and tiny-profile shapes, at Parallelism 1, 2
// and 8.
//
// parent2 is what the parent commit's executor made of the same plan at
// Parallelism 2: chunks of whole output GOPs, nothing under two of them
// cut, and a sole source's cut moved down to the source keyframe whatever
// that did to the balance. Where the output GOP is a second or less the
// cost rule keeps the parent's shard count at Parallelism 2 and its cut
// whenever every tap pays the same to start there (the grids, the aligned
// read); a sole source read off the keyframe grid is now cut in the
// middle instead of up to a GOP early, because the frames that moved onto
// one worker cost more than the roll-forward they saved (kabr/Q9: 162
// frames at 5 units against 150 frames + 12 decodes). No shard is shorter
// than MinShardFrames — a second of output here — so a 2 s render
// has at most two and anything under 2 s stays whole, as at the parent.
func TestShardCuts(t *testing.T) {
	tiny := func(body string) func(*testing.T) string {
		return func(*testing.T) string { return specSrc(body) }
	}
	bench := func(ds string, q, start int) func(*testing.T) string {
		return func(t *testing.T) string { return benchSpec(t, ds, q, start) }
	}
	for _, tc := range []struct {
		name                string
		src                 func(*testing.T) string
		par2, par8, parent2 string
	}{
		// Output GOP 240 frames (10 s): the parent cut none of these. A
		// 48-frame read starts 60+ frames into the source GOP; balanced,
		// its second shard would be under a second long, so it stays whole.
		{"tos/Q3 grid 48f, 60 in", bench("tos", 3, 60), "[0 48]", "[0 48]", "[0 48]"},
		{"tos/Q3 grid 48f, 75 in", bench("tos", 3, 75), "[0 48]", "[0 48]", "[0 48]"},
		{"tos/Q4 blur 48f, 60 in", bench("tos", 4, 240+60), "[0 48]", "[0 48]", "[0 48]"},
		{"tos/Q4 blur 48f, 75 in", bench("tos", 4, 240+75), "[0 48]", "[0 48]", "[0 48]"},
		{"tos/Q5 boxes 48f, 60 in", bench("tos", 5, 240+60), "[0 48]", "[0 48]", "[0 48]"},
		{"tos/Q5 boxes 48f, 75 in", bench("tos", 5, 240+75), "[0 48]", "[0 48]", "[0 48]"},
		{"tos/Q8 grid 240f, 60 in", bench("tos", 8, 60), "[0 120 240]", "[0 120 240]", "[0 240]"},
		{"tos/Q8 grid 240f, 75 in", bench("tos", 8, 75), "[0 117 240]", "[0 69 163 240]", "[0 240]"},
		{"tos/Q9 blur 240f, 60 in", bench("tos", 9, 240+60), "[0 134 240]", "[0 74 133 180 240]", "[0 240]"},
		{"tos/Q9 blur 240f, 75 in", bench("tos", 9, 240+75), "[0 134 240]", "[0 68 122 165 240]", "[0 240]"},
		{"tos/Q10 boxes 240f, 60 in", bench("tos", 10, 240+60), "[0 134 240]", "[0 74 133 180 240]", "[0 240]"},
		{"tos/Q10 boxes 240f, 75 in", bench("tos", 10, 240+75), "[0 134 240]", "[0 68 122 165 240]", "[0 240]"},
		// Output GOP 30 frames (1 s).
		{"kabr/Q3 grid 60f", bench("kabr", 3, 60+12), "[0 30 60]", "[0 30 60]", "[0 30 60]"},
		{"kabr/Q4 blur 60f", bench("kabr", 4, 60+12), "[0 30 60]", "[0 30 60]", "[0 18 60]"},
		{"kabr/Q8 grid 300f", bench("kabr", 8, 60+12), "[0 150 300]", "[0 41 76 108 154 192 226 258 300]", "[0 150 300]"},
		{"kabr/Q9 blur 300f", bench("kabr", 9, 60+12), "[0 150 300]", "[0 39 75 110 150 189 225 260 300]", "[0 138 300]"},
		// The render arm the data rewriter leaves inside batch_copy's
		// box queries: a second and a half, whole at the parent and here.
		{"kabr render arm 45f", func(t *testing.T) string {
			_, _, kabr := benchDatasets(t)
			return fmt.Sprintf("timedomain range(0, 3/2, 1/30);\nvideos { k: %q; }\nrender(t) = blur(k[t + 12/5], 1.5);", kabr[0])
		}, "[0 45]", "[0 45]", "[0 45]"},
		// Tiny profile: output GOP 24 frames (1 s), 96 frames.
		{"tiny aligned", tiny(`render(t) = blur(v[t], 1);`), "[0 48 96]", "[0 24 48 72 96]", "[0 48 96]"},
		{"tiny offset", tiny(`render(t) = blur(v[t + 7/24], 1);`), "[0 48 96]", "[0 24 48 72 96]", "[0 41 96]"},
		// A read that starts late in a long source GOP and runs over its
		// end is cut on the source keyframe: nowhere else is cheaper.
		{"long GOP, keyframe inside", func(t *testing.T) string {
			tos, _, _ := benchDatasets(t)
			return fmt.Sprintf("timedomain range(0, 3, 1/24);\nvideos { s: %q; }\nrender(t) = blur(s[t + 9], 1);", tos)
		}, "[0 24 72]", "[0 24 72]", "[0 72]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src(t)
			for par, want := range map[int]string{1: "", 2: tc.par2, 8: tc.par8} {
				p := planFor(t, src, par)
				if len(p.Segments) != 1 {
					t.Fatalf("plan has %d segments, want 1:\n%s", len(p.Segments), p.Explain())
				}
				s := p.Segments[0]
				if par == 1 {
					want = fmt.Sprint([]int{0, s.FrameCount()})
				}
				if got := fmt.Sprint(s.Bounds()); got != want {
					t.Errorf("Parallelism %d: bounds %s, want %s\n%s", par, got, want, p.Explain())
				}
				checkCuts(t, p, s)
			}
		})
	}
}

// checkCuts asserts what every plan the shard pass leaves must satisfy:
// cuts strictly increasing inside the segment, no shard shorter than
// MinShardFrames, and every cut moving more work (its shard's frames at
// FrameCost) than starting there costs (roll-forward, and an extra
// keyframe off the output cadence).
func checkCuts(t *testing.T, p *plan.Plan, s *plan.Segment) {
	t.Helper()
	bounds := append(append([]int{0}, s.Cuts...), s.FrameCount())
	if got := s.Bounds(); fmt.Sprint(got) != fmt.Sprint(bounds) {
		t.Errorf("cuts %v are not strictly increasing inside (0,%d): bounds %v", s.Cuts, s.FrameCount(), got)
	}
	roll, perFrame := s.RollForward(p), s.FrameCost().Units()
	for i, lo := range bounds[:len(bounds)-1] {
		hi := bounds[i+1]
		if len(bounds) > 2 && hi-lo < p.MinShardFrames() {
			t.Errorf("shard [%d,%d) is shorter than MinShardFrames %d", lo, hi, p.MinShardFrames())
		}
		if i == 0 {
			continue
		}
		start := plan.Cost{DecodeFrames: roll(lo)}.Units()
		if lo%p.Checked.Output.GOP != 0 {
			start += extraKeyframe
		}
		if moved := float64(hi-lo) * perFrame; moved <= start {
			t.Errorf("cut at %d moves %.0f units and costs %.0f to start", lo, moved, start)
		}
	}
}

// TestShardCutsEveryPhase runs the invariants over every start phase of
// the long-GOP source, where the roll-forward — and with it the cut —
// moves frame by frame.
func TestShardCutsEveryPhase(t *testing.T) {
	for _, q := range []int{3, 4, 8, 9} {
		for start := 0; start < 240; start += 11 {
			if q == 8 && start > 96 {
				break // the grid's last tap would run off the 50 s film
			}
			src := benchSpec(t, "tos", q, start)
			for _, par := range []int{1, 2, 8} {
				p := planFor(t, src, par)
				s := p.Segments[0]
				if par == 1 && s.Cuts != nil {
					t.Errorf("Q%d at %d: Parallelism 1 cut the segment at %v", q, start, s.Cuts)
				}
				if len(s.Cuts) >= par {
					t.Errorf("Q%d at %d: %d cuts at Parallelism %d", q, start, len(s.Cuts), par)
				}
				checkCuts(t, p, s)
			}
		}
	}
}

// TestShardPassEdgeShapes: segments too short to cut, and a tap whose
// position the plan cannot know, go through the pass without a cut that
// does not exist or a panic.
func TestShardPassEdgeShapes(t *testing.T) {
	for _, frames := range []int{0, 1} {
		p := buildPlan(t, specSrc(`render(t) = blur(v[t], 1);`))
		s := p.Segments[0]
		s.Times = rational.NewRange(rational.Zero, rational.New(int64(frames), 24), rational.New(1, 24))
		if n := shardPass(p, 8); n != 0 || s.Cuts != nil || len(s.Bounds()) != 2 {
			t.Errorf("%d-frame segment: sharded %d, cuts %v", frames, n, s.Cuts)
		}
		if c := s.EstimateCost(p); (frames == 0) != c.IsZero() {
			t.Errorf("%d-frame segment estimated at %v", frames, c)
		}
	}
	// s[2t] is not t + c: each cut is charged half the source's 240-frame
	// GOP per tap, and 48 frames of work still carry that.
	p := planFor(t, specSrc(`render(t) = blur(s[t * 2], 1);`), 2)
	s := p.Segments[0]
	if taps := s.Taps(); len(taps) != 1 || taps[0].Affine {
		t.Fatalf("taps = %+v, want one non-affine tap", taps)
	}
	if got := fmt.Sprint(s.Bounds()); got != "[0 48 96]" {
		t.Errorf("non-affine render bounds = %s, want [0 48 96]", got)
	}
	if got := s.RollForward(p)(48); got != 120 {
		t.Errorf("non-affine roll-forward = %d, want 120", got)
	}
}
