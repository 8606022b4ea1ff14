package opt

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v2v/internal/check"
	"v2v/internal/dataset"
	"v2v/internal/plan"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

var (
	fxVid    string // tiny profile: 24 fps, GOP 24 (1 s)
	fxSparse string // sparse keyframes: GOP 10 s (ToS-like)
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "v2v-opt-")
	if err != nil {
		panic(err)
	}
	p := dataset.TinyProfile()
	fxVid = filepath.Join(dir, "a.vmf")
	if _, err := dataset.Generate(fxVid, "", p, rational.FromInt(8)); err != nil {
		panic(err)
	}
	sparse := p
	sparse.GOPSeconds = rational.FromInt(10)
	fxSparse = filepath.Join(dir, "sparse.vmf")
	if _, err := dataset.Generate(fxSparse, "", sparse, rational.FromInt(8)); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func buildPlan(t *testing.T, src string) *plan.Plan {
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
	return p
}

func specSrc(body string) string {
	return fmt.Sprintf(`
		timedomain range(0, 4, 1/24);
		videos { v: %q; s: %q; }
		%s`, fxVid, fxSparse, body)
}

func TestStreamCopyKeyAligned(t *testing.T) {
	// Clip starting at t=1 in v: source time 1 s = frame 24, a keyframe
	// (GOP 24). The whole segment becomes a pure copy.
	p := buildPlan(t, specSrc(`render(t) = v[t + 1];`))
	st, err := Optimize(p, Default())
	if err != nil {
		t.Fatal(err)
	}
	if st.Copies != 1 || st.SmartCuts != 0 {
		t.Fatalf("stats = %+v", st)
	}
	s := p.Segments[0]
	if s.Kind != plan.SegCopy || s.Video != "v" || s.From != 24 || s.To != 24+96 {
		t.Errorf("segment = %+v", s)
	}
	if !p.Optimized {
		t.Error("plan should be marked optimized")
	}
}

// TestSmartCutSplitsIntoHeadAndCopy pins what copyPass emits for a plain
// clip: a copy where it starts on a keyframe; a render head on the clip's
// own leaf followed by a copy where it starts mid-GOP with a keyframe
// inside; the untouched render segment where there is no such keyframe.
func TestSmartCutSplitsIntoHeadAndCopy(t *testing.T) {
	type seg struct {
		kind     plan.SegKind
		from, to int    // source packets: a copy's range, a head's re-encoded range
		times    string // output times, "start,end"
	}
	cases := []struct {
		name, body  string
		copies, smt int
		want        []seg
	}{
		{"on-keyframe", `render(t) = v[t + 1];`, 1, 0,
			[]seg{{plan.SegCopy, 24, 120, "0,4"}}},
		{"mid-gop", `render(t) = v[t + 25/24];`, 0, 1,
			[]seg{{plan.SegFrames, 25, 48, "0,23/24"}, {plan.SegCopy, 48, 121, "23/24,4"}}},
		{"no-keyframe-inside", `render(t) = s[t + 1/24];`, 0, 0,
			[]seg{{plan.SegFrames, 0, 0, "0,4"}}},
		{"keyframe-inside-arm", `render(t) = match t { t in range(0, 1, 1/24) => v[t + 1/2], t in range(1, 4, 1/24) => blur(v[t], 1.0), };`, 0, 1,
			[]seg{{plan.SegFrames, 12, 24, "0,1/2"}, {plan.SegCopy, 24, 36, "1/2,1"}, {plan.SegFrames, 0, 0, "1,4"}}},
		// Frames [12,24) end exactly on keyframe 24: none inside, nothing to copy.
		{"ends-on-keyframe", `render(t) = match t { t in range(0, 1/2, 1/24) => v[t + 1/2], t in range(1/2, 4, 1/24) => blur(v[t], 1.0), };`, 0, 0,
			[]seg{{plan.SegFrames, 0, 0, "0,1/2"}, {plan.SegFrames, 0, 0, "1/2,4"}}},
		{"splice-of-cuts", `render(t) = match t { t in range(0, 2, 1/24) => v[t + 7/24], t in range(2, 4, 1/24) => v[t + 31/24], };`, 0, 2,
			[]seg{{plan.SegFrames, 7, 24, "0,17/24"}, {plan.SegCopy, 24, 55, "17/24,2"},
				{plan.SegFrames, 79, 96, "2,65/24"}, {plan.SegCopy, 96, 127, "65/24,4"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := buildPlan(t, specSrc(tc.body))
			st, err := Optimize(p, Default())
			if err != nil {
				t.Fatal(err)
			}
			if st.Copies != tc.copies || st.SmartCuts != tc.smt {
				t.Errorf("stats = %+v, want %d copies, %d smart cuts (cuts, not segments)", st, tc.copies, tc.smt)
			}
			if len(p.Segments) != len(tc.want) {
				t.Fatalf("%d segments, want %d:\n%s", len(p.Segments), len(tc.want), p.Explain())
			}
			for i, w := range tc.want {
				s := p.Segments[i]
				got := seg{s.Kind, s.From, s.To, s.Times.Start.String() + "," + s.Times.End.String()}
				if got != w {
					t.Errorf("segment %d = %+v, want %+v", i, got, w)
				}
				if i > 0 && !p.Segments[i-1].Times.End.Equal(s.Times.Start) {
					t.Errorf("segment %d starts at %s, the one before ends at %s", i, s.Times.Start, p.Segments[i-1].Times.End)
				}
				switch {
				case s.Kind == plan.SegCopy && s.Root != nil:
					t.Errorf("segment %d: copy kept an operator tree", i)
				case s.Kind == plan.SegFrames && w.to > 0:
					// A head renders the bare clip leaf it already had.
					if !s.Root.IsLeaf() || s.Video != "v" || s.FrameCount() != w.to-w.from {
						t.Errorf("segment %d: head = %d frames of %q on %+v", i, s.FrameCount(), s.Video, s.Root)
					}
					if s.EstCost.EncodeFrames != int64(w.to-w.from) {
						t.Errorf("segment %d: head estimated at %d encodes, want %d", i, s.EstCost.EncodeFrames, w.to-w.from)
					}
				}
			}
		})
	}
}

func TestNoKeyframesNoSmartCut(t *testing.T) {
	// The sparse video has keyframes every 10 s; an 4 s clip starting
	// mid-GOP contains none, so the plan stays a render segment — the
	// paper's Q1-on-ToS observation (plans identical).
	p := buildPlan(t, specSrc(`render(t) = s[t + 1/24];`))
	st, err := Optimize(p, Default())
	if err != nil {
		t.Fatal(err)
	}
	if st.Copies != 0 || st.SmartCuts != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if p.Segments[0].Kind != plan.SegFrames {
		t.Error("segment should remain a render")
	}
}

func TestMergeFiltersCollapsesTree(t *testing.T) {
	p := buildPlan(t, specSrc(`render(t) = blur(zoom(v[t], 2), 1.5);`))
	before := p.Segments[0].Root.CountOps()
	if before != 3 {
		t.Fatalf("ops before = %d", before)
	}
	st, err := Optimize(p, Options{MergeFilters: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.FiltersMerged != 2 {
		t.Errorf("boundaries removed = %d, want 2", st.FiltersMerged)
	}
	root := p.Segments[0].Root
	if root.CountOps() != 1 || root.Materialize {
		t.Errorf("root after merge: ops=%d mat=%v", root.CountOps(), root.Materialize)
	}
	want, _ := vql.ParseExpr("blur(zoom(v[t], 2), 1.5)")
	if !root.Expr.EqualExpr(want) {
		t.Errorf("merged expr = %s", root.Expr)
	}
}

func TestMergeSegments(t *testing.T) {
	// Two adjacent arms with the same body merge into one segment.
	p := buildPlan(t, specSrc(`render(t) = match t {
		t in range(0, 2, 1/24) => v[t],
		t in range(2, 4, 1/24) => v[t],
	};`))
	if len(p.Segments) != 2 {
		t.Fatalf("segments before = %d", len(p.Segments))
	}
	st, err := Optimize(p, Options{MergeSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsMerged != 1 || len(p.Segments) != 1 {
		t.Fatalf("merged = %d, segments = %d", st.SegmentsMerged, len(p.Segments))
	}
	s := p.Segments[0]
	if !s.Times.Start.Equal(rational.Zero) || !s.Times.End.Equal(rational.FromInt(4)) {
		t.Errorf("merged times = %v", s.Times)
	}
}

func TestMergeSegmentsRespectsDifferentBodies(t *testing.T) {
	p := buildPlan(t, specSrc(`render(t) = match t {
		t in range(0, 2, 1/24) => v[t],
		t in range(2, 4, 1/24) => s[t],
	};`))
	st, err := Optimize(p, Options{MergeSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsMerged != 0 || len(p.Segments) != 2 {
		t.Error("different bodies must not merge")
	}
}

func TestShardPass(t *testing.T) {
	// 4 s at 24 fps = 96 frames on a keyframe: four even shards.
	p := buildPlan(t, specSrc(`render(t) = blur(v[t], 1);`))
	st, err := Optimize(p, Options{Shard: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardedSegs != 1 {
		t.Fatalf("sharded = %d", st.ShardedSegs)
	}
	if got := fmt.Sprint(p.Segments[0].Bounds()); got != "[0 24 48 72 96]" {
		t.Errorf("bounds = %s", got)
	}
	// Parallelism 1 disables sharding.
	p2 := buildPlan(t, specSrc(`render(t) = blur(v[t], 1);`))
	st2, _ := Optimize(p2, Options{Shard: true, Parallelism: 1})
	if st2.ShardedSegs != 0 || p2.Segments[0].Cuts != nil {
		t.Error("parallelism 1 should not shard")
	}
}

func TestCopyRequiresPassthrough(t *testing.T) {
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		output { width: 64; height: 36; fps: 24; }
		render(t) = v[t + 1];`, fxVid)
	p := buildPlan(t, src)
	st, err := Optimize(p, Default())
	if err != nil {
		t.Fatal(err)
	}
	if st.Copies != 0 || st.SmartCuts != 0 {
		t.Error("explicit output must disable copies")
	}
	if p.Segments[0].Kind != plan.SegFrames {
		t.Error("segment should render")
	}
}

func TestPassToggles(t *testing.T) {
	// StreamCopy off, SmartCut on: key-aligned clip stays a render.
	p := buildPlan(t, specSrc(`render(t) = v[t + 1];`))
	st, _ := Optimize(p, Options{SmartCut: true})
	if st.Copies != 0 || p.Segments[0].Kind != plan.SegFrames {
		t.Error("copy disabled should keep render")
	}
	// SmartCut off: mid-GOP clip stays a render.
	p2 := buildPlan(t, specSrc(`render(t) = v[t + 25/24];`))
	st2, _ := Optimize(p2, Options{StreamCopy: true})
	if st2.SmartCuts != 0 || p2.Segments[0].Kind != plan.SegFrames {
		t.Error("smartcut disabled should keep render")
	}
}

func TestOptimizeAnnotatesExplain(t *testing.T) {
	p := buildPlan(t, specSrc(`render(t) = v[t + 1];`))
	if _, err := Optimize(p, Default()); err != nil {
		t.Fatal(err)
	}
	if len(p.Notes) == 0 {
		t.Error("optimizer should annotate the plan")
	}
}

func TestSmartCutHeadAnnotation(t *testing.T) {
	// Clip starts 1 frame past keyframe 24: the head to re-encode is 23
	// frames (up to keyframe 48), and explain names it.
	p := buildPlan(t, specSrc(`render(t) = v[t + 25/24];`))
	if _, err := Optimize(p, Default()); err != nil {
		t.Fatal(err)
	}
	text := p.Explain()
	if !strings.Contains(text, "(23 frames) smart-cut head of v [25,48)") || !strings.Contains(text, "copy v packets [48,121)") {
		t.Errorf("explain missing head annotation:\n%s", text)
	}
	if !strings.Contains(text, "1 smart cuts") {
		t.Errorf("plan note does not count the cut:\n%s", text)
	}
	// Copy segments render as grey diamonds in DOT.
	dot := p.DOT()
	if !strings.Contains(dot, "diamond") || !strings.Contains(dot, "lightgrey") || !strings.Contains(dot, "clip v[") {
		t.Errorf("DOT missing the head's clip or the copy's grey diamond:\n%s", dot)
	}
}
