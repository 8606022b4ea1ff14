package rewrite

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"v2v/internal/check"
	"v2v/internal/data"
	"v2v/internal/dataset"
	"v2v/internal/raster"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

var (
	fxDir  string
	fxVid  string
	fxVid2 string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "v2v-rewrite-")
	if err != nil {
		panic(err)
	}
	fxDir = dir
	fxVid = filepath.Join(dir, "a.vmf")
	fxVid2 = filepath.Join(dir, "b.vmf")
	p := dataset.TinyProfile()
	if _, err := dataset.Generate(fxVid, "", p, rational.FromInt(4)); err != nil {
		panic(err)
	}
	p.Seed = 55
	if _, err := dataset.Generate(fxVid2, "", p, rational.FromInt(4)); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// saveArray writes entries to a JSON file in fxDir and returns its path.
func saveArray(t *testing.T, name string, entries []data.Entry) string {
	t.Helper()
	arr, err := data.NewArray(entries)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(fxDir, name)
	if err := arr.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func checkSpec(t *testing.T, src string) *check.Checked {
	t.Helper()
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := check.Check(s, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPaperIfThenElseExample(t *testing.T) {
	// The paper's §IV-C running example: TimeDomain {0,1,2}, a = [3,6,8],
	// Render(t) = IfThenElse(a[t] < 5, vid1[t], vid2[t]) rewrites to
	// match { t in {0} => vid1[t], t in {1,2} => vid2[t] }.
	ann := saveArray(t, "a.json", []data.Entry{
		{T: rational.FromInt(0), V: vql.NumV(rational.FromInt(3))},
		{T: rational.FromInt(1), V: vql.NumV(rational.FromInt(6))},
		{T: rational.FromInt(2), V: vql.NumV(rational.FromInt(8))},
	})
	// Tiny fixture is 24 fps; use an explicit output to allow integer steps.
	src := fmt.Sprintf(`
		timedomain range(0, 3, 1);
		videos { vid1: %q; vid2: %q; }
		data { a: %q; }
		output { width: 160; height: 96; fps: 1; }
		render(t) = if a[t] < 5 then vid1[t] else vid2[t];`, fxVid, fxVid2, ann)
	c := checkSpec(t, src)
	out, stats, err := Rewrite(c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped {
		t.Fatal("should not skip")
	}
	if stats.Applied["ifthenelse"] != 3 {
		t.Errorf("applied = %v", stats.Applied)
	}
	m, ok := out.Render.(vql.Match)
	if !ok {
		t.Fatalf("rewritten render = %s", out.Render)
	}
	if len(m.Arms) != 2 {
		t.Fatalf("arms = %d: %s", len(m.Arms), out.Render)
	}
	want0 := vql.VideoRef{Name: "vid1", Index: vql.TimeVar{}}
	want1 := vql.VideoRef{Name: "vid2", Index: vql.TimeVar{}}
	if !m.Arms[0].Body.EqualExpr(want0) {
		t.Errorf("arm 0 = %s", m.Arms[0].Body)
	}
	if !m.Arms[1].Body.EqualExpr(want1) {
		t.Errorf("arm 1 = %s", m.Arms[1].Body)
	}
	if !m.Arms[0].Guard.Contains(rational.Zero) || m.Arms[0].Guard.Count() != 1 {
		t.Errorf("arm 0 guard = %s", m.Arms[0].Guard)
	}
	if !m.Arms[1].Guard.Contains(rational.One) || !m.Arms[1].Guard.Contains(rational.FromInt(2)) {
		t.Errorf("arm 1 guard = %s", m.Arms[1].Guard)
	}
	if stats.ArmsBefore != 1 || stats.ArmsAfter != 2 {
		t.Errorf("arm counts %d -> %d", stats.ArmsBefore, stats.ArmsAfter)
	}
}

func TestBoundingBoxIdentityRewrite(t *testing.T) {
	// Boxes present only on frames 12..23 of a 48-frame domain: the
	// rewriter should produce plain-reference arms elsewhere.
	var entries []data.Entry
	for i := 0; i < 48; i++ {
		v := vql.BoxesV(nil)
		if i >= 12 && i < 24 {
			v = vql.BoxesV([]raster.Box{{X: 8, Y: 8, W: 24, H: 24, Class: "OBJ", Track: 1}})
		}
		entries = append(entries, data.Entry{T: rational.New(int64(i), 24), V: v})
	}
	ann := saveArray(t, "bb.json", entries)
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		data { bb: %q; }
		render(t) = boxes(v[t], bb[t]);`, fxVid, ann)
	c := checkSpec(t, src)
	out, stats, err := Rewrite(c)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := out.Render.(vql.Match)
	if !ok || len(m.Arms) != 3 {
		t.Fatalf("render = %s", out.Render)
	}
	plain := vql.VideoRef{Name: "v", Index: vql.TimeVar{}}
	boxed := vql.Call{Name: "boxes", Args: []vql.Expr{plain, vql.DataRef{Name: "bb", Index: vql.TimeVar{}}}}
	if !m.Arms[0].Body.EqualExpr(plain) || !m.Arms[2].Body.EqualExpr(plain) {
		t.Errorf("outer arms should be identity: %s | %s", m.Arms[0].Body, m.Arms[2].Body)
	}
	if !m.Arms[1].Body.EqualExpr(boxed) {
		t.Errorf("middle arm should keep boxes: %s", m.Arms[1].Body)
	}
	if stats.Applied["boxes"] != 36 {
		t.Errorf("applied = %v", stats.Applied)
	}
	// Guards partition [0,2) at 12/24 and 24/24.
	if !m.Arms[1].Guard.Contains(rational.New(12, 24)) || m.Arms[1].Guard.Contains(rational.New(24, 24)) {
		t.Errorf("arm 1 guard = %s", m.Arms[1].Guard)
	}
}

func TestRewriteSkipsDataFreeSpecs(t *testing.T) {
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		render(t) = blur(v[t], 1.5);`, fxVid)
	c := checkSpec(t, src)
	out, stats, err := Rewrite(c)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Skipped {
		t.Error("data-free spec should skip")
	}
	if out != c.Spec {
		t.Error("skipped rewrite should return the input spec")
	}
}

func TestRewriteConstantFoldsZoom(t *testing.T) {
	// zoom(v[t], 1) has a DDE (identity when factor == 1) and a constant
	// argument — the rewriter folds it without any data arrays.
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; }
		render(t) = zoom(v[t], 1);`, fxVid)
	c := checkSpec(t, src)
	out, stats, err := Rewrite(c)
	if err != nil {
		t.Fatal(err)
	}
	want := vql.VideoRef{Name: "v", Index: vql.TimeVar{}}
	if !out.Render.EqualExpr(want) {
		t.Errorf("render = %s", out.Render)
	}
	if stats.Applied["zoom"] != 1 {
		t.Errorf("applied = %v (static fold fires once)", stats.Applied)
	}
	if stats.ArmsAfter != 1 {
		t.Errorf("arms after = %d", stats.ArmsAfter)
	}
}

func TestRewritePreservesSemantics(t *testing.T) {
	// Evaluating the original and rewritten specs at every domain time
	// must agree (frame identity via data-free structural checks: both
	// sides must pick the same video reference).
	ann := saveArray(t, "cond.json", []data.Entry{
		{T: rational.FromInt(0), V: vql.BoolV(true)},
		{T: rational.FromInt(1), V: vql.BoolV(false)},
		{T: rational.FromInt(2), V: vql.BoolV(true)},
		{T: rational.FromInt(3), V: vql.BoolV(true)},
	})
	src := fmt.Sprintf(`
		timedomain range(0, 4, 1);
		videos { vid1: %q; vid2: %q; }
		data { c: %q; }
		output { width: 160; height: 96; fps: 1; }
		render(t) = ifthenelse(c[t], vid1[t], vid2[t]);`, fxVid, fxVid2, ann)
	c := checkSpec(t, src)
	out, _, err := Rewrite(c)
	if err != nil {
		t.Fatal(err)
	}
	wantVids := []string{"vid1", "vid2", "vid1", "vid1"}
	for i, want := range wantVids {
		at := rational.FromInt(int64(i))
		body := out.RenderFor(at)
		vr, ok := body.(vql.VideoRef)
		if !ok {
			t.Fatalf("t=%d body = %s", i, body)
		}
		if vr.Name != want {
			t.Errorf("t=%d selects %s, want %s", i, vr.Name, want)
		}
	}
}

func TestRewriteNestedDDE(t *testing.T) {
	// boxes inside ifthenelse: both levels rewrite.
	ann := saveArray(t, "nested.json", []data.Entry{
		{T: rational.FromInt(0), V: vql.BoxesV(nil)},
		{T: rational.FromInt(1), V: vql.BoxesV([]raster.Box{{X: 1, Y: 1, W: 4, H: 4}})},
	})
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1);
		videos { v: %q; }
		data { bb: %q; }
		output { width: 160; height: 96; fps: 1; }
		render(t) = ifthenelse(count(bb[t]) > 0, boxes(v[t], bb[t]), v[t]);`, fxVid, ann)
	c := checkSpec(t, src)
	out, _, err := Rewrite(c)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := out.Render.(vql.Match)
	if !ok || len(m.Arms) != 2 {
		t.Fatalf("render = %s", out.Render)
	}
	// t=0: no boxes -> both the inner boxes() and outer ifthenelse
	// collapse to v[t].
	if _, isRef := m.Arms[0].Body.(vql.VideoRef); !isRef {
		t.Errorf("arm 0 = %s", m.Arms[0].Body)
	}
	// t=1: boxes stay.
	if call, isCall := m.Arms[1].Body.(vql.Call); !isCall || call.Name != "boxes" {
		t.Errorf("arm 1 = %s", m.Arms[1].Body)
	}
}

func TestRewriteMatchInputPartitioning(t *testing.T) {
	// A spec that is already a match: rewriting respects arm boundaries
	// and still merges equal neighbours.
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; w: %q; }
		render(t) = match t {
			t in range(0, 1, 1/24) => zoom(v[t], 1),
			t in range(1, 2, 1/24) => zoom(w[t], 1),
		};`, fxVid, fxVid2)
	c := checkSpec(t, src)
	out, stats, err := Rewrite(c)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := out.Render.(vql.Match)
	if !ok || len(m.Arms) != 2 {
		t.Fatalf("render = %s", out.Render)
	}
	if stats.ArmsBefore != 2 || stats.ArmsAfter != 2 {
		t.Errorf("arms %d -> %d", stats.ArmsBefore, stats.ArmsAfter)
	}
	if _, isRef := m.Arms[0].Body.(vql.VideoRef); !isRef {
		t.Errorf("zoom(,1) should fold away: %s", m.Arms[0].Body)
	}
}
