package vql

import (
	"strings"
	"testing"
	"unsafe"

	"v2v/internal/frame"
	"v2v/internal/raster"
	"v2v/internal/rational"
)

func rat(n, d int64) rational.Rat { return rational.New(n, d) }

// fakeFrames serves flat frames whose luma encodes which (video, time) was
// requested, so evaluation results are checkable.
type fakeFrames struct{ w, h int }

func (f fakeFrames) SourceFrame(video string, t rational.Rat) (*frame.Frame, error) {
	fr := frame.New(f.w, f.h, frame.FormatYUV420)
	lum := byte(len(video)*10) + byte(t.Mul(rational.FromInt(4)).Floor())
	fr.Fill(lum, 128, 128)
	return fr, nil
}

// fakeData serves values from a map.
type fakeData map[string]map[string]Val

func (d fakeData) DataAt(name string, t rational.Rat) (Val, bool, error) {
	arr, ok := d[name]
	if !ok {
		return Val{}, false, errUnknownArray(name)
	}
	v, ok := arr[t.String()]
	return v, ok, nil
}

type errUnknownArray string

func (e errUnknownArray) Error() string { return "unknown array " + string(e) }

func env(t rational.Rat) *Env {
	return &Env{T: t, Frames: fakeFrames{w: 32, h: 32}, Data: fakeData{
		"a": {
			"0": NumV(rational.FromInt(3)),
			"1": NumV(rational.FromInt(6)),
			"2": NumV(rational.FromInt(8)),
		},
		"bb": {
			"0": BoxesV(nil),
			"1": BoxesV([]raster.Box{{X: 2, Y: 2, W: 8, H: 8, Class: "Z"}}),
		},
	}}
}

func mustParseExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func evalNum(t *testing.T, src string, at rational.Rat) rational.Rat {
	t.Helper()
	v, err := Eval(mustParseExpr(t, src), env(at))
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	if v.Type != TypeNum {
		t.Fatalf("Eval(%q) type = %v", src, v.Type)
	}
	return v.Num
}

func evalBool(t *testing.T, src string, at rational.Rat) bool {
	t.Helper()
	v, err := Eval(mustParseExpr(t, src), env(at))
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	if v.Type != TypeBool {
		t.Fatalf("Eval(%q) type = %v", src, v.Type)
	}
	return v.Bool
}

// TestValSize pins Val's layout on 64-bit targets: Bool shares Type's
// word, so a Val is 72 bytes, not 80. Every datum a data array holds is a
// Val, so each byte here is a byte per annotation entry.
func TestValSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned on 64-bit targets")
	}
	if got := unsafe.Sizeof(Val{}); got != 72 {
		t.Errorf("unsafe.Sizeof(Val{}) = %d, want 72", got)
	}
}

func TestArithmeticFolding(t *testing.T) {
	// Integer division folds to an exact rational at parse time.
	e := mustParseExpr(t, "13463/30")
	n, ok := e.(NumLit)
	if !ok || !n.V.Equal(rat(13463, 30)) {
		t.Fatalf("13463/30 parsed as %v", e)
	}
	if got := evalNum(t, "t + 13463/30", rat(1, 30)); !got.Equal(rat(13464, 30)) {
		t.Errorf("t + 13463/30 = %v", got)
	}
	if got := evalNum(t, "2 * 3 + 4/2 - 1", rational.Zero); !got.Equal(rational.FromInt(7)) {
		t.Errorf("fold = %v", got)
	}
	if got := evalNum(t, "-(t + 1)", rational.One); !got.Equal(rational.FromInt(-2)) {
		t.Errorf("neg = %v", got)
	}
	if got := evalNum(t, "-5/10", rational.Zero); !got.Equal(rat(-1, 2)) {
		t.Errorf("-5/10 = %v", got)
	}
	if got := evalNum(t, "29.97", rational.Zero); !got.Equal(rat(2997, 100)) {
		t.Errorf("decimal = %v", got)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := map[string]bool{
		"1 < 2":            true,
		"2 <= 2":           true,
		"3 > 4":            false,
		"3 >= 3":           true,
		"1/2 == 2/4":       true,
		"1 != 1":           false,
		"true and false":   false,
		"true or false":    true,
		"not false":        true,
		"1 < 2 and 2 < 3":  true,
		`"a" == "a"`:       true,
		`"a" != "b"`:       true,
		"null == null":     true,
		"t == 0 or t == 1": true, // at t=0
		"not (1 > 2)":      true,
	}
	for src, want := range cases {
		if got := evalBool(t, src, rational.Zero); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	bad := []string{
		"1/0 + t",      // division by zero survives folding
		`"a" + 1`,      // bad arithmetic types
		`"a" < "b"`,    // ordering non-numbers
		"-true",        // negate bool
		"zoom(t, 2)",   // transform wants a frame
		"unknowntr(t)", // unknown transform
		"zoom(vid[t])", // arity
		"vid[true]",    // non-numeric index
	}
	for _, src := range bad {
		if _, err := Eval(mustParseExpr(t, src), env(rational.Zero)); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestDataRefEval(t *testing.T) {
	e := DataRef{Name: "a", Index: TimeVar{}}
	v, err := Eval(e, env(rational.One))
	if err != nil || !v.Num.Equal(rational.FromInt(6)) {
		t.Fatalf("a[1] = %v, %v", v, err)
	}
	// Missing sample -> null.
	v, err = Eval(DataRef{Name: "a", Index: NumLit{rat(9, 1)}}, env(rational.Zero))
	if err != nil || v.Type != TypeNull {
		t.Fatalf("a[9] = %v, %v", v, err)
	}
	// Unknown array -> error.
	if _, err := Eval(DataRef{Name: "nope", Index: TimeVar{}}, env(rational.Zero)); err == nil {
		t.Error("unknown array should error")
	}
}

func TestIfThenElseSugarAndPaperExample(t *testing.T) {
	// The paper's example: IfThenElse(a[t] < 5, vid1[t], vid2[t]) over
	// a = [3, 6, 8]: t=0 -> vid1, t=1,2 -> vid2.
	src := "if a[t] < 5 then vid1[t] else vid2[t]"
	e := mustParseExpr(t, src)
	c, ok := e.(Call)
	if !ok || c.Name != "ifthenelse" {
		t.Fatalf("sugar parsed as %v", e)
	}
	// Resolve a as data, vids as videos via a spec.
	spec := &Spec{
		TimeDomain: rational.NewRange(rational.Zero, rational.FromInt(3), rational.One),
		Render:     e,
		Videos:     map[string]string{"vid1": "x", "vid2": "y"},
		DataFiles:  map[string]string{"a": "z"},
		DataSQL:    map[string]string{},
	}
	if err := spec.ResolveRefs(); err != nil {
		t.Fatal(err)
	}
	for i, wantVid := range []string{"vid1", "vid2", "vid2"} {
		at := rational.FromInt(int64(i))
		v, err := Eval(spec.Render, env(at))
		if err != nil {
			t.Fatalf("t=%d: %v", i, err)
		}
		// fakeFrames encodes len(video)*10 + 4t in luma: vid1/vid2 both len 4.
		_ = wantVid
		if v.Type != TypeFrame {
			t.Fatalf("t=%d type = %v", i, v.Type)
		}
	}
	// Check branch selection via the DDE function directly.
	tr, _ := Lookup("ifthenelse")
	got, ok := tr.DDE(c.Args, []Val{BoolV(true), {Type: TypeFrame}, {Type: TypeFrame}})
	if !ok || !got.EqualExpr(c.Args[1]) {
		t.Errorf("ifthenelse dde true = %v, %v", got, ok)
	}
	got, ok = tr.DDE(c.Args, []Val{BoolV(false), {Type: TypeFrame}, {Type: TypeFrame}})
	if !ok || !got.EqualExpr(c.Args[2]) {
		t.Errorf("ifthenelse dde false = %v", got)
	}
	if _, ok := tr.DDE(c.Args, []Val{{Type: TypeFrame}, {Type: TypeFrame}, {Type: TypeFrame}}); ok {
		t.Error("symbolic condition should not rewrite")
	}
}

func TestBoxesDDE(t *testing.T) {
	tr, ok := Lookup("boxes")
	if !ok {
		t.Fatal("boxes not registered")
	}
	args := []Expr{VideoRef{Name: "v", Index: TimeVar{}}, DataRef{Name: "bb", Index: TimeVar{}}}
	// Empty boxes -> identity.
	got, ok := tr.DDE(args, []Val{{Type: TypeFrame}, BoxesV(nil)})
	if !ok || !got.EqualExpr(args[0]) {
		t.Errorf("empty boxes dde = %v, %v", got, ok)
	}
	// Null sample -> identity.
	got, ok = tr.DDE(args, []Val{{Type: TypeFrame}, NullV()})
	if !ok || !got.EqualExpr(args[0]) {
		t.Errorf("null boxes dde = %v", got)
	}
	// Non-empty -> keep.
	if _, ok := tr.DDE(args, []Val{{Type: TypeFrame}, BoxesV([]raster.Box{{W: 1, H: 1}})}); ok {
		t.Error("non-empty boxes should not rewrite")
	}
}

// resolveBB rewrites references to "bb" into DataRefs, mimicking what
// Spec.ResolveRefs does for declared data arrays.
func resolveBB(e Expr) Expr {
	switch n := e.(type) {
	case VideoRef:
		if n.Name == "bb" {
			return DataRef{Name: "bb", Index: resolveBB(n.Index)}
		}
		return VideoRef{Name: n.Name, Index: resolveBB(n.Index)}
	case Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = resolveBB(a)
		}
		return Call{Name: n.Name, Args: args}
	case BinOp:
		return BinOp{Op: n.Op, L: resolveBB(n.L), R: resolveBB(n.R)}
	default:
		return e
	}
}

func TestTransformEvalSmoke(t *testing.T) {
	// Every frame transform evaluates without error on a real frame.
	cases := []string{
		"zoom(vid[t], 2)",
		"blur(vid[t], 1.0)",
		"sharpen(vid[t])",
		"edges(vid[t])",
		"denoise(vid[t])",
		"grade(vid[t], 10, 1.2, 0.8)",
		"grid(a[t], b[t], c[t], d[t])",
		"overlay(vid[t], logo[t], 2, 2, 128)",
		"boxes(vid[t], bb[t])",
		`label(vid[t], "HI", 2, 2)`,
		"crossfade(a[t], b[t], 0.5)",
		"wipe(a[t], b[t], 0.5)",
		"scale(vid[t], 16, 16)",
		"crop(vid[t], 0, 0, 16, 16)",
	}
	e := env(rational.One)
	for _, src := range cases {
		v, err := Eval(resolveBB(mustParseExpr(t, src)), e)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if v.Type != TypeFrame || v.Frame == nil {
			t.Errorf("%q: result %v", src, v)
		}
	}
	// count returns a number.
	v, err := Eval(resolveBB(mustParseExpr(t, "count(bb[1])")), e)
	if err != nil || !v.Num.Equal(rational.One) {
		t.Errorf("count(bb[1]) = %v, %v", v, err)
	}
	cv, err := Eval(resolveBB(mustParseExpr(t, "count(bb[0]) == 0")), env(rational.Zero))
	if err != nil || !cv.Bool {
		t.Errorf("count of empty should be 0: %v %v", cv, err)
	}
}

func TestMatchEval(t *testing.T) {
	src := `match t {
		t in range(0, 2, 1) => vid1[t],
		t in {2, 3} => zoom(vid1[t], 2),
	}`
	e := mustParseExpr(t, src)
	m, ok := e.(Match)
	if !ok || len(m.Arms) != 2 {
		t.Fatalf("parsed %v", e)
	}
	for i := 0; i < 4; i++ {
		v, err := Eval(e, env(rational.FromInt(int64(i))))
		if err != nil || v.Type != TypeFrame {
			t.Fatalf("t=%d: %v %v", i, v, err)
		}
	}
	if _, err := Eval(e, env(rational.FromInt(9))); err == nil {
		t.Error("uncovered time should error")
	}
	if body := m.ArmFor(rational.FromInt(3)); body == nil {
		t.Error("ArmFor(3) should match second arm")
	}
	if body := m.ArmFor(rational.FromInt(9)); body != nil {
		t.Error("ArmFor(9) should be nil")
	}
}

func TestGuardSemantics(t *testing.T) {
	g := RangeGuard(rational.NewRange(rational.Zero, rational.One, rat(1, 4)))
	if !g.Contains(rat(3, 4)) || g.Contains(rational.One) || g.Contains(rat(1, 3)) {
		t.Error("range guard wrong")
	}
	if g.Count() != 4 {
		t.Errorf("count = %d", g.Count())
	}
	s := SetGuard([]rational.Rat{rational.FromInt(5), rational.Zero})
	if !s.Contains(rational.Zero) || !s.Contains(rational.FromInt(5)) || s.Contains(rational.One) {
		t.Error("set guard wrong")
	}
	if s.Count() != 2 {
		t.Errorf("set count = %d", s.Count())
	}
	if !s.Interval().Contains(rational.FromInt(3)) {
		t.Error("set interval should span")
	}
	if !g.EqualGuard(RangeGuard(rational.NewRange(rational.Zero, rational.One, rat(1, 4)))) {
		t.Error("equal range guards")
	}
	// Range and set guards with identical times are equal.
	s2 := SetGuard([]rational.Rat{rational.Zero, rat(1, 4), rat(1, 2), rat(3, 4)})
	if !g.EqualGuard(s2) || !s2.EqualGuard(g) {
		t.Error("range/set guard equality")
	}
	if g.EqualGuard(SetGuard([]rational.Rat{rational.Zero})) {
		t.Error("different counts should differ")
	}
}

func TestParseSpecFull(t *testing.T) {
	src := `
	// A paper-style spec.
	timedomain range(0, 600, 1/30);
	videos {
		vid1: "video1.vmf";
		vid2: "video2.vmf";
	}
	data { vid1_bb: "annot1.json"; }
	sql { counts: "SELECT ts, n FROM det"; }
	output { width: 128; height: 72; fps: 30; }
	render(t) = match t {
		t in range(0, 300, 1/30) => vid1[t],
		t in range(300, 600, 1/30) => boxes(vid2[t - 300], vid1_bb[t - 300]),
	};
	`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if spec.TimeDomain.Count() != 18000 {
		t.Errorf("domain count = %d", spec.TimeDomain.Count())
	}
	if spec.Videos["vid1"] != "video1.vmf" || spec.DataFiles["vid1_bb"] != "annot1.json" {
		t.Error("bindings wrong")
	}
	if spec.DataSQL["counts"] == "" {
		t.Error("sql binding missing")
	}
	if spec.Output == nil || spec.Output.Width != 128 || !spec.Output.FPS.Equal(rational.FromInt(30)) {
		t.Errorf("output = %+v", spec.Output)
	}
	// Data refs resolved.
	m := spec.Render.(Match)
	call := m.Arms[1].Body.(Call)
	if _, ok := call.Args[1].(DataRef); !ok {
		t.Errorf("vid1_bb should resolve to DataRef, got %T", call.Args[1])
	}
	if _, ok := call.Args[0].(VideoRef); !ok {
		t.Errorf("vid2 should resolve to VideoRef, got %T", call.Args[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"missing domain":  `render(t) = vid[t]; videos { vid: "x"; }`,
		"missing render":  `timedomain range(0, 1, 1);`,
		"bad section":     `bogus { }`,
		"undeclared name": `timedomain range(0,1,1); render(t) = vid[t];`,
		"reserved name":   `timedomain range(0,1,1); videos { match: "x"; } render(t) = match[t];`,
		"dup binding":     `timedomain range(0,1,1); videos { v: "x"; v: "y"; } render(t) = v[t];`,
		"zero step":       `timedomain range(0, 1, 0); videos { v: "x"; } render(t) = v[t];`,
		"bad guard":       `timedomain range(0,1,1); videos { v: "x"; } render(t) = match t { 5 > 2 => v[t] };`,
		"non-const guard": `timedomain range(0,1,1); videos { v: "x"; } render(t) = match t { {t} => v[t] };`,
		"bare name":       `timedomain range(0,1,1); videos { v: "x"; } render(t) = v;`,
		"range as expr":   `timedomain range(0,1,1); videos { v: "x"; } render(t) = range(0,1,1);`,
		"unterminated":    `timedomain range(0,1,1); videos { v: "x; } render(t) = v[t];`,
		"bad escape":      `timedomain range(0,1,1); videos { v: "\q"; } render(t) = v[t];`,
		"index non-name":  `timedomain range(0,1,1); videos { v: "x"; } render(t) = zoom(v[t],2)[t];`,
		"render param":    `timedomain range(0,1,1); videos { v: "x"; } render(x) = v[t];`,
	}
	for name, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	srcs := []string{
		`timedomain range(0, 10, 1/24);
		videos { v: "a.vmf"; w: "b.vmf"; }
		render(t) = match t {
			t in range(0, 5, 1/24) => v[t],
			t in range(5, 10, 1/24) => grid(v[t], zoom(w[t], 2), blur(w[t], 1.5), v[t + 1/24]),
		};`,
		`timedomain range(0, 3, 1);
		videos { v: "a.vmf"; }
		data { a: "ann.json"; }
		render(t) = if a[t] < 5 then v[t] else zoom(v[t], 2);`,
		`timedomain range(0, 2, 1/2);
		videos { v: "a.vmf"; }
		output { width: 64; height: 36; fps: 24; }
		render(t) = grade(v[t], -10, 1.5, 0.5);`,
	}
	for i, src := range srcs {
		s1, err := Parse(src)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		text := Format(s1)
		s2, err := Parse(text)
		if err != nil {
			t.Fatalf("spec %d reparse: %v\n%s", i, err, text)
		}
		if !s1.Render.EqualExpr(s2.Render) {
			t.Errorf("spec %d render round-trip differs:\n%s\nvs\n%s", i, s1.Render, s2.Render)
		}
		if !s1.TimeDomain.Start.Equal(s2.TimeDomain.Start) || s1.TimeDomain.Count() != s2.TimeDomain.Count() {
			t.Errorf("spec %d domain round-trip differs", i)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	src := `
	timedomain range(0, 10, 1/30);
	videos { v: "a.vmf"; w: "b.vmf"; }
	data { bb: "ann.json"; }
	render(t) = match t {
		t in range(0, 5, 1/30) => boxes(v[t], bb[t]),
		t in {5, 6} => ifthenelse(count(bb[t]) > 0, v[t], w[t - 5]),
		t in range(7, 10, 1/30) => grade(overlay(v[t], w[t], 4, 4, 200), 0, 1.1, -0.5),
	};`
	s1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalSpecJSON(s1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := UnmarshalSpecJSON(raw)
	if err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
	if !s1.Render.EqualExpr(s2.Render) {
		t.Errorf("render differs:\n%s\nvs\n%s", s1.Render, s2.Render)
	}
	if s2.Videos["v"] != "a.vmf" || s2.DataFiles["bb"] != "ann.json" {
		t.Error("bindings lost")
	}
}

func TestJSONUnmarshalErrors(t *testing.T) {
	bad := []string{
		`not json`,
		`{"timedomain":{"start":[0,1],"end":[1,1],"step":[0,1]},"render":{"op":"time"}}`,
		`{"timedomain":{"start":[0,1],"end":[1,1],"step":[1,1]},"render":{"op":"wat"}}`,
		`{"timedomain":{"start":[0,1],"end":[1,1],"step":[1,1]},"render":{"op":"video","name":"v","index":{"op":"time"}}}`,
		`{"timedomain":{"start":[0,1],"end":[1,1],"step":[1,1]}}`,
	}
	for i, raw := range bad {
		if _, err := UnmarshalSpecJSON([]byte(raw)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestParseAny(t *testing.T) {
	const text = `timedomain range(0, 1, 1/30); videos { v: "a.vmf"; } render(t) = v[t];`
	want, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalSpecJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, in string
		ok       bool
	}{
		{"text", text, true},
		{"json", string(raw), true},
		{"leading whitespace", " \t\r\n" + string(raw), true},
		{"whitespace only", " \t\r\n", false},
		{"empty", "", false},
	} {
		got, err := ParseAny([]byte(tc.in))
		switch {
		case !tc.ok && err == nil:
			t.Errorf("%s: expected error", tc.name)
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.ok && !got.Render.EqualExpr(want.Render):
			t.Errorf("%s: render = %s, want %s", tc.name, got.Render, want.Render)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register did not panic")
		}
	}()
	Register(&Transform{Name: "zoom"})
}

func TestRegisterUDF(t *testing.T) {
	Register(&Transform{
		Name: "testudf_invert", Params: []Type{TypeFrame}, Result: TypeFrame, PreservesFormat: true,
		Eval: func(_ Alloc, args []Val) (Val, error) {
			out := args[0].Frame.Clone()
			p := out.Planes()
			for i := range p[0] {
				p[0][i] = 255 - p[0][i]
			}
			return FrameVal(out), nil
		},
	})
	v, err := Eval(mustParseExpr(t, "testudf_invert(vid[t])"), env(rational.Zero))
	if err != nil || v.Type != TypeFrame {
		t.Fatalf("udf eval: %v %v", v, err)
	}
	found := false
	for _, n := range TransformNames() {
		if n == "testudf_invert" {
			found = true
		}
	}
	if !found {
		t.Error("udf not listed")
	}
}

func TestSpecCloneIndependence(t *testing.T) {
	s, err := Parse(`timedomain range(0,1,1); videos { v: "x"; } render(t) = v[t];`)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	c.Videos["v"] = "changed"
	if s.Videos["v"] != "x" {
		t.Error("clone shares video map")
	}
}

func TestUsesTimeAndWalk(t *testing.T) {
	e := mustParseExpr(t, "zoom(vid[t], 2)")
	if !UsesTime(e) {
		t.Error("should use time")
	}
	if UsesTime(mustParseExpr(t, "zoom(vid[5], 2)")) {
		t.Error("constant index should not use time")
	}
	count := 0
	Walk(e, func(Expr) { count++ })
	if count != 4 { // call, videoref, timevar, numlit
		t.Errorf("walk count = %d", count)
	}
}

func TestValHelpers(t *testing.T) {
	if !NumV(rat(3, 2)).Truthy() || NumV(rational.Zero).Truthy() {
		t.Error("num truthy")
	}
	if NumV(rat(7, 2)).Int() != 3 {
		t.Error("int floor")
	}
	if NumV(rat(1, 2)).Float() != 0.5 {
		t.Error("float")
	}
	if !strings.Contains(FrameVal(frame.New(4, 4, frame.FormatGray8)).String(), "4x4") {
		t.Error("frame string")
	}
}

func TestComposeTransformsEval(t *testing.T) {
	e := env(rational.One)
	for _, src := range []string{
		"hstack(a[t], b[t])",
		"vstack(a[t], b[t])",
		"pip(a[t], b[t], 4, 4, 4)",
		"gridn(a[t], b[t], c[t])",
	} {
		v, err := Eval(mustParseExpr(t, src), e)
		if err != nil || v.Type != TypeFrame {
			t.Errorf("%q: %v %v", src, v, err)
		}
	}
}

func TestTransformArgValidation(t *testing.T) {
	e := env(rational.One)
	bad := []string{
		"scale(vid[t], 15, 16)",          // odd width
		"scale(vid[t], 0, 16)",           // zero
		"crop(vid[t], 1, 0, 16, 16)",     // odd x
		"crop(vid[t], 0, 0, 64, 64)",     // out of bounds (32x32 fake frames)
		"crop(vid[t], -2, 0, 16, 16)",    // negative
		"crossfade(vid[t], big[t], 0.5)", // shape mismatch handled below
	}
	for _, src := range bad[:5] {
		if _, err := Eval(mustParseExpr(t, src), e); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
	// Shape mismatch: build frames of different sizes directly.
	small := FrameVal(frame.New(16, 16, frame.FormatYUV420))
	big := FrameVal(frame.New(32, 32, frame.FormatYUV420))
	for _, name := range []string{"crossfade", "wipe"} {
		tr, _ := Lookup(name)
		if _, err := tr.Eval(nil, []Val{small, big, NumV(rat(1, 2))}); err == nil {
			t.Errorf("%s shape mismatch should error", name)
		}
	}
}
