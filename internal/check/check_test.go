package check

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v2v/internal/container"
	"v2v/internal/dataset"
	"v2v/internal/rational"
	"v2v/internal/sqlmini"
	"v2v/internal/vql"
)

// fixture generates a 2-second tiny video (24 fps, GOP 24) plus its
// annotations once per test binary.
type fixture struct {
	dir     string
	vid     string
	vid2    string
	ann     string
	profile dataset.Profile
}

var fx *fixture

func TestMain(m *testing.M) {
	code := m.Run()
	if fx != nil {
		os.RemoveAll(fx.dir)
	}
	os.Exit(code)
}

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if fx != nil {
		return fx
	}
	dir, err := os.MkdirTemp("", "v2v-check-")
	if err != nil {
		t.Fatal(err)
	}
	p := dataset.TinyProfile()
	f := &fixture{dir: dir, profile: p}
	f.vid = filepath.Join(dir, "tiny.vmf")
	f.ann = filepath.Join(dir, "tiny.boxes.json")
	if _, err := dataset.Generate(f.vid, f.ann, p, rational.FromInt(2)); err != nil {
		t.Fatal(err)
	}
	f.vid2 = filepath.Join(dir, "tiny2.vmf")
	p2 := p
	p2.Seed = 99
	if _, err := dataset.Generate(f.vid2, "", p2, rational.FromInt(2)); err != nil {
		t.Fatal(err)
	}
	fx = f
	return f
}

func parseSpec(t *testing.T, f *fixture, body string) *vql.Spec {
	t.Helper()
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; w: %q; }
		data { bb: %q; }
		%s`, f.vid, f.vid2, f.ann, body)
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return s
}

func TestCheckSimpleClip(t *testing.T) {
	f := getFixture(t)
	s := parseSpec(t, f, `render(t) = v[t];`)
	c, err := Check(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Passthrough {
		t.Error("no explicit output should be passthrough")
	}
	if c.Output.Width != f.profile.Width || !c.Output.FPS.Equal(f.profile.FPS) {
		t.Errorf("output = %+v", c.Output)
	}
	dep := c.Deps["v"]
	// Needs [0, 1) of v (frame extents end exactly at 1s).
	want := rational.NewRangeSet(rational.Interval{Lo: rational.Zero, Hi: rational.One})
	if !dep.Equal(want) {
		t.Errorf("deps = %v, want %v", dep, want)
	}
}

func TestCheckShiftedClip(t *testing.T) {
	f := getFixture(t)
	s := parseSpec(t, f, `render(t) = v[t + 1/2];`)
	c, err := Check(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := rational.NewRangeSet(rational.Interval{Lo: rational.New(1, 2), Hi: rational.New(3, 2)})
	if !c.Deps["v"].Equal(want) {
		t.Errorf("deps = %v, want %v", c.Deps["v"], want)
	}
}

func TestCheckOutOfRangeFails(t *testing.T) {
	f := getFixture(t)
	// Source is 2 s long; reading v[t + 3/2] over a 1 s domain needs up to 2.5 s.
	s := parseSpec(t, f, `render(t) = v[t + 3/2];`)
	if _, err := Check(s, Options{}); err == nil {
		t.Fatal("expected dependency error")
	}
}

func TestCheckOffGridFails(t *testing.T) {
	f := getFixture(t)
	s := parseSpec(t, f, `render(t) = v[t + 1/100];`)
	if _, err := Check(s, Options{}); err == nil {
		t.Fatal("expected off-grid error")
	}
}

func TestCheckMatchCoverage(t *testing.T) {
	f := getFixture(t)
	s := parseSpec(t, f, `render(t) = match t {
		t in range(0, 1/2, 1/24) => v[t],
		t in range(1/2, 1, 1/24) => w[t - 1/2],
	};`)
	c, err := Check(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantV := rational.NewRangeSet(rational.Interval{Lo: rational.Zero, Hi: rational.New(1, 2)})
	wantW := rational.NewRangeSet(rational.Interval{Lo: rational.Zero, Hi: rational.New(1, 2)})
	if !c.Deps["v"].Equal(wantV) || !c.Deps["w"].Equal(wantW) {
		t.Errorf("deps v=%v w=%v", c.Deps["v"], c.Deps["w"])
	}
	// A gap in coverage fails.
	s2 := parseSpec(t, f, `render(t) = match t {
		t in range(0, 1/2, 1/24) => v[t],
	};`)
	if _, err := Check(s2, Options{}); err == nil {
		t.Fatal("uncovered domain should fail")
	}
}

func TestCheckDataDependency(t *testing.T) {
	f := getFixture(t)
	s := parseSpec(t, f, `render(t) = boxes(v[t], bb[t]);`)
	c, err := Check(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Arrays["bb"] == nil || c.Arrays["bb"].Len() == 0 {
		t.Error("annotations not loaded")
	}
	// Reading annotations beyond what exists fails.
	s2 := parseSpec(t, f, `render(t) = boxes(v[t], bb[t + 100]);`)
	if _, err := Check(s2, Options{}); err == nil {
		t.Fatal("missing data samples should fail")
	}
}

func TestCheckSQLArray(t *testing.T) {
	f := getFixture(t)
	db := sqlmini.NewDB()
	db.CreateTable("det", []sqlmini.Column{
		{Name: "ts", Type: sqlmini.TypeRat},
		{Name: "n", Type: sqlmini.TypeNum},
	})
	for i := 0; i < 24; i++ {
		db.Insert("det", []sqlmini.Cell{
			sqlmini.RatCell(rational.New(int64(i), 24)),
			sqlmini.NumCell(float64(i % 3)),
		})
	}
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; w: %q; }
		sql { n: "SELECT ts, n FROM det"; }
		render(t) = if n[t] > 0 then v[t] else w[t];`, f.vid, f.vid2)
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(s, Options{}); err == nil {
		t.Fatal("sql array without DB should fail")
	}
	c, err := Check(s, Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if c.Arrays["n"].Len() != 24 {
		t.Errorf("sql array len = %d", c.Arrays["n"].Len())
	}
}

func TestCheckTypeErrors(t *testing.T) {
	f := getFixture(t)
	bad := []string{
		`render(t) = t;`,                                       // render must be a Frame
		`render(t) = zoom(t, 2);`,                              // frame arg wanted
		`render(t) = zoom(v[t], v[t]);`,                        // num arg wanted
		`render(t) = boxes(v[t], v[t]);`,                       // boxes arg wanted
		`render(t) = v[v[t]];`,                                 // index must be data-free
		`render(t) = v[t] + 1;`,                                // arithmetic over frames
		`render(t) = ifthenelse(v[t] == v[t], v[t], v[t]);`,    // frame comparison
		`render(t) = grade(v[t], 0, 1, t < 1);`,                // bool where num wanted
		`render(t) = match t { t in range(0, 1, 1/24) => t };`, // arm not Frame
		`render(t) = grid(v[t], v[t], v[t], match t { t in range(0,1,1/24) => v[t] });`, // nested match
	}
	for _, body := range bad {
		s := parseSpec(t, f, body)
		if _, err := Check(s, Options{}); err == nil {
			t.Errorf("%s: expected check error", body)
		}
	}
}

func TestCheckUnknownNames(t *testing.T) {
	f := getFixture(t)
	// Manually build a spec referencing unknown names (the parser would
	// catch these via ResolveRefs, so construct the AST directly).
	s := parseSpec(t, f, `render(t) = v[t];`)
	s.Render = vql.VideoRef{Name: "ghost", Index: vql.TimeVar{}}
	if _, err := Check(s, Options{}); err == nil {
		t.Error("unknown video should fail")
	}
	s.Render = vql.Call{Name: "boxes", Args: []vql.Expr{
		vql.VideoRef{Name: "v", Index: vql.TimeVar{}},
		vql.DataRef{Name: "ghost", Index: vql.TimeVar{}},
	}}
	if _, err := Check(s, Options{}); err == nil {
		t.Error("unknown data array should fail")
	}
	s.Render = vql.Call{Name: "nosuch", Args: nil}
	if _, err := Check(s, Options{}); err == nil {
		t.Error("unknown transform should fail")
	}
}

func TestCheckMissingFiles(t *testing.T) {
	f := getFixture(t)
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: "%s/nope.vmf"; }
		render(t) = v[t];`, f.dir)
	s, _ := vql.Parse(src)
	if _, err := Check(s, Options{}); err == nil {
		t.Error("missing video file should fail")
	}
	src2 := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; }
		data { bb: "%s/nope.json"; }
		render(t) = boxes(v[t], bb[t]);`, f.vid, f.dir)
	s2, _ := vql.Parse(src2)
	if _, err := Check(s2, Options{}); err == nil {
		t.Error("missing annotation file should fail")
	}
}

func TestCheckExplicitOutput(t *testing.T) {
	f := getFixture(t)
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; }
		output { width: 64; height: 36; fps: 24; }
		render(t) = v[t];`, f.vid)
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Check(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Passthrough {
		t.Error("explicit output should disable passthrough")
	}
	if c.Output.Width != 64 || c.Output.Height != 36 {
		t.Errorf("output = %+v", c.Output)
	}
	// Odd output dims fail.
	src2 := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; }
		output { width: 63; height: 36; fps: 24; }
		render(t) = v[t];`, f.vid)
	s2, _ := vql.Parse(src2)
	if _, err := Check(s2, Options{}); err == nil {
		t.Error("odd output width should fail")
	}
}

func TestCheckDomainStepMismatch(t *testing.T) {
	f := getFixture(t)
	// Domain at 12 fps over a 24 fps source without explicit output: the
	// output cadence is ambiguous.
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/12);
		videos { v: %q; }
		render(t) = v[t];`, f.vid)
	s, _ := vql.Parse(src)
	if _, err := Check(s, Options{}); err == nil {
		t.Error("step/fps mismatch should fail without explicit output")
	}
}

func TestCheckEmptyDomain(t *testing.T) {
	f := getFixture(t)
	src := fmt.Sprintf(`
		timedomain range(1, 1, 1/24);
		videos { v: %q; }
		render(t) = v[t];`, f.vid)
	s, _ := vql.Parse(src)
	if _, err := Check(s, Options{}); err == nil {
		t.Error("empty domain should fail")
	}
}

func TestAffineOffset(t *testing.T) {
	cases := []struct {
		src  string
		want string
		ok   bool
	}{
		{"t", "0", true},
		{"t + 5", "5", true},
		{"5 + t", "5", true},
		{"t - 1/2", "-1/2", true},
		{"t * 2", "", false},
		{"2 - t", "", false},
		{"t + t", "", false},
	}
	for _, c := range cases {
		e, err := vql.ParseExpr(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		off, ok := AffineOffset(e)
		if ok != c.ok {
			t.Errorf("AffineOffset(%s) ok = %v", c.src, ok)
			continue
		}
		if ok && off.String() != c.want {
			t.Errorf("AffineOffset(%s) = %s, want %s", c.src, off, c.want)
		}
	}
}

func TestCheckNonAffineIndex(t *testing.T) {
	f := getFixture(t)
	// Reverse playback: v[1 - 1/24 - t] is not affine in our narrow sense
	// but is still analyzable by enumeration.
	s := parseSpec(t, f, `render(t) = v[1 - 1/24 - t];`)
	c, err := Check(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := rational.NewRangeSet(rational.Interval{Lo: rational.Zero, Hi: rational.One})
	if !c.Deps["v"].Equal(want) {
		t.Errorf("deps = %v", c.Deps["v"])
	}
}

func TestCheckIncompatibleSourcesNeedOutput(t *testing.T) {
	f := getFixture(t)
	other := filepath.Join(f.dir, "other.vmf")
	p := f.profile
	p.Width, p.Height = 192, 96
	if _, err := dataset.Generate(other, "", p, rational.FromInt(2)); err != nil {
		t.Fatal(err)
	}
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; u: %q; }
		render(t) = match t {
			t in range(0, 1/2, 1/24) => v[t],
			t in range(1/2, 1, 1/24) => u[t],
		};`, f.vid, other)
	s, _ := vql.Parse(src)
	if _, err := Check(s, Options{}); err == nil {
		t.Error("incompatible sources without explicit output should fail")
	} else if !strings.Contains(err.Error(), "size 192x96 vs 160x96") {
		t.Errorf("err = %v, want it to name the size mismatch", err)
	}

	// A quality-only mismatch names the quality, not two equal sizes.
	q := filepath.Join(f.dir, "q4.vmf")
	writeHeaderOnly(t, q, func(si *container.StreamInfo) { si.Quality = 4 })
	s, _ = vql.Parse(strings.Replace(src, other, q, 1))
	if _, err := Check(s, Options{}); err == nil || !strings.Contains(err.Error(), "quality 4 vs 1") {
		t.Errorf("quality-only mismatch: err = %v, want it to name the quality", err)
	}
}

// writeHeaderOnly writes a 2-second VMF with the tiny profile's stream
// info, changed by edit, and placeholder packets: Check reads headers and
// indexes only.
func writeHeaderOnly(t *testing.T, path string, edit func(*container.StreamInfo)) {
	t.Helper()
	p := dataset.TinyProfile()
	info := p.StreamInfo()
	edit(&info)
	w, err := container.Create(path, info)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		if err := w.WritePacket(int64(i), i%p.GOPFrames() == 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckOutputFormatIsDeterministic: sources that differ only in what
// Compatible ignores — GOP, Level — check, and the inherited output format
// is the lexically first video's on every call, not whichever map entry
// came first.
func TestCheckOutputFormatIsDeterministic(t *testing.T) {
	f := getFixture(t)
	gop48 := filepath.Join(f.dir, "gop48.vmf")
	p := f.profile
	p.GOPSeconds = rational.FromInt(2)
	if _, err := dataset.Generate(gop48, "", p, rational.FromInt(2)); err != nil {
		t.Fatal(err)
	}
	level3 := filepath.Join(f.dir, "level3.vmf")
	writeHeaderOnly(t, level3, func(si *container.StreamInfo) { si.Level = 3 })
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { a: %q; b: %q; c: %q; }
		render(t) = grid(a[t], b[t], c[t], a[t]);`, f.vid, gop48, level3)
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 64; i++ {
		c, err := Check(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !c.Passthrough {
			t.Fatal("compatible sources should pass their format through")
		}
		counts[fmt.Sprintf("gop=%d level=%d", c.Output.GOP, c.Output.Level)]++
	}
	if want := fmt.Sprintf("gop=%d level=0", f.profile.GOPFrames()); len(counts) != 1 || counts[want] != 64 {
		t.Errorf("64 checks gave output formats %v, want %q every time", counts, want)
	}
}

func TestSQLMaterializationIsTimeBounded(t *testing.T) {
	f := getFixture(t)
	db := sqlmini.NewDB()
	db.CreateTable("det", []sqlmini.Column{
		{Name: "ts", Type: sqlmini.TypeRat},
		{Name: "n", Type: sqlmini.TypeNum},
	})
	// Rows cover 0..100 s; the spec reads only [1/2, 3/2).
	for i := 0; i < 100*24; i++ {
		db.Insert("det", []sqlmini.Cell{
			sqlmini.RatCell(rational.New(int64(i), 24)),
			sqlmini.NumCell(1),
		})
	}
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; w: %q; }
		sql { n: "SELECT ts, n FROM det"; }
		render(t) = if n[t + 1/2] > 0 then v[t] else w[t];`, f.vid, f.vid2)
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Check(s, Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	// Bounded: exactly the 24 samples of [1/2, 3/2), not 2400.
	if got := c.Arrays["n"].Len(); got != 24 {
		t.Errorf("materialized %d rows, want 24 (time-bounded)", got)
	}
	// Non-affine index falls back to full materialization.
	src2 := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { v: %q; w: %q; }
		sql { n: "SELECT ts, n FROM det"; }
		render(t) = if n[1 - 1/24 - t] > 0 then v[t] else w[t];`, f.vid, f.vid2)
	s2, _ := vql.Parse(src2)
	c2, err := Check(s2, Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Arrays["n"].Len(); got != 100*24 {
		t.Errorf("non-affine materialized %d rows, want full 2400", got)
	}
}

func TestCheckDomainTooLarge(t *testing.T) {
	f := getFixture(t)
	src := fmt.Sprintf(`
		timedomain range(0, 3000000, 1);
		videos { v: %q; }
		render(t) = v[t];`, f.vid)
	s, _ := vql.Parse(src)
	if _, err := Check(s, Options{}); err == nil {
		t.Error("oversized domain should fail fast")
	}
}

func TestCheckGridAcrossTwoVideos(t *testing.T) {
	f := getFixture(t)
	s := parseSpec(t, f, `render(t) = grid(v[t], w[t], v[t + 1], w[t + 1]);`)
	c, err := Check(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantV := rational.NewRangeSet(rational.Interval{Lo: rational.Zero, Hi: rational.FromInt(2)})
	if !c.Deps["v"].Equal(wantV) || !c.Deps["w"].Equal(wantV) {
		t.Errorf("deps v=%v w=%v", c.Deps["v"], c.Deps["w"])
	}
}
