package v2v

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v2v/internal/dataset"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/rational"
	"v2v/internal/sqlmini"
	"v2v/internal/vql"
)

var (
	fxVid string
	fxAnn string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "v2v-root-")
	if err != nil {
		panic(err)
	}
	p := dataset.TinyProfile()
	fxVid = filepath.Join(dir, "a.vmf")
	fxAnn = filepath.Join(dir, "a.boxes.json")
	if _, err := dataset.Generate(fxVid, fxAnn, p, rational.FromInt(4)); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestPublicAPISynthesis(t *testing.T) {
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { cam: %q; }
		render(t) = cam[t + 1];`, fxVid)
	spec, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.vmf")
	res, err := Synthesize(spec, out, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Output.PacketsCopied != 24 {
		t.Errorf("copied = %d", res.Metrics.Output.PacketsCopied)
	}
	r, err := media.OpenReader(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fr, err := r.FrameAtIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := frame.ReadStamp(fr); !ok || id != 24 {
		t.Errorf("first frame stamp = %d,%v", id, ok)
	}
}

func TestSpecBuilder(t *testing.T) {
	spec, err := NewSpec(Sec(0), Sec(2), R(1, 24)).
		Video("cam", fxVid).
		Data("bb", fxAnn).
		Arm(Sec(0), Sec(1), R(1, 24), "cam[t]").
		Arm(Sec(1), Sec(2), R(1, 24), "boxes(cam[t], bb[t])").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.vmf")
	if _, err := Synthesize(spec, out, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	r, _ := media.OpenReader(out)
	defer r.Close()
	if r.NumFrames() != 48 {
		t.Errorf("frames = %d", r.NumFrames())
	}
}

func TestSpecBuilderErrors(t *testing.T) {
	if _, err := NewSpec(Sec(0), Sec(1), Sec(0)).Build(); err == nil {
		t.Error("zero step should fail")
	}
	if _, err := NewSpec(Sec(0), Sec(1), R(1, 24)).Build(); err == nil {
		t.Error("no render should fail")
	}
	if _, err := NewSpec(Sec(0), Sec(1), R(1, 24)).
		Video("v", "x").Video("v", "y").Render("v[t]").Build(); err == nil {
		t.Error("duplicate video should fail")
	}
	if _, err := NewSpec(Sec(0), Sec(1), R(1, 24)).
		Video("v", "x").Render("v[t]").Render("v[t]").Build(); err == nil {
		t.Error("double render should fail")
	}
	if _, err := NewSpec(Sec(0), Sec(1), R(1, 24)).
		Video("v", "x").Render("ghost[t]").Build(); err == nil {
		t.Error("unresolved name should fail")
	}
	if _, err := NewSpec(Sec(0), Sec(1), R(1, 24)).
		Video("v", "x").
		Arm(Sec(0), Sec(1), R(1, 24), "v[t]").
		Render("v[t]").Build(); err == nil {
		t.Error("arms then render should fail")
	}
	if _, err := NewSpec(Sec(0), Sec(1), R(1, 24)).
		Data("d", "x").SQL("d", "SELECT 1").Build(); err == nil {
		t.Error("duplicate data name should fail")
	}
}

func TestSpecBuilderArmSetAndOutput(t *testing.T) {
	spec, err := NewSpec(Sec(0), Sec(2), Sec(1)).
		Video("cam", fxVid).
		Output(64, 48, Sec(1)).
		ArmSet([]Rat{Sec(0), Sec(1)}, "cam[t]").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "o.vmf")
	if _, err := Synthesize(spec, out, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	r, _ := media.OpenReader(out)
	defer r.Close()
	if r.Info().Width != 64 || r.NumFrames() != 2 {
		t.Errorf("info = %+v frames = %d", r.Info(), r.NumFrames())
	}
}

func TestLoadSpecBothFormats(t *testing.T) {
	dir := t.TempDir()
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { cam: %q; }
		render(t) = cam[t];`, fxVid)
	spec, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}

	textPath := filepath.Join(dir, "spec.v2v")
	if err := os.WriteFile(textPath, []byte(FormatSpec(spec)), 0o644); err != nil {
		t.Fatal(err)
	}
	fromText, err := LoadSpec(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if !fromText.Render.EqualExpr(spec.Render) {
		t.Error("text round-trip differs")
	}

	raw, err := MarshalSpecJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(jsonPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := LoadSpec(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !fromJSON.Render.EqualExpr(spec.Render) {
		t.Error("json round-trip differs")
	}

	empty := filepath.Join(dir, "empty.v2v")
	os.WriteFile(empty, []byte("  \n"), 0o644)
	if _, err := LoadSpec(empty); err == nil {
		t.Error("empty file should fail")
	}
	if _, err := LoadSpec(filepath.Join(dir, "nope")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestExplainAPI(t *testing.T) {
	src := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { cam: %q; }
		render(t) = cam[t + 1];`, fxVid)
	spec, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	unopt, err := Explain(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(unopt, "unoptimized") || !strings.Contains(unopt, "clip cam") {
		t.Errorf("unopt explain:\n%s", unopt)
	}
	opted, err := Explain(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opted, "copy cam") {
		t.Errorf("opt explain should show a copy:\n%s", opted)
	}
	dot, err := ExplainDOT(spec, DefaultOptions())
	if err != nil || !strings.Contains(dot, "digraph") {
		t.Errorf("dot: %v\n%s", err, dot)
	}
	bad, _ := ParseSpec(fmt.Sprintf(`
		timedomain range(0, 100, 1/24);
		videos { cam: %q; }
		render(t) = cam[t];`, fxVid))
	if _, err := Explain(bad, Options{}); err == nil {
		t.Error("failing check should propagate")
	}
}

func TestSQLIntegrationThroughPublicAPI(t *testing.T) {
	db := NewDB()
	db.CreateTable("det", []sqlmini.Column{
		{Name: "ts", Type: vql.TypeNum},
		{Name: "hot", Type: vql.TypeBool},
	})
	for i := 0; i < 24; i++ {
		db.Insert("det", []vql.Val{
			vql.NumV(R(int64(i), 24)),
			vql.BoolV(i >= 12),
		})
	}
	spec, err := NewSpec(Sec(0), Sec(1), R(1, 24)).
		Video("cam", fxVid).
		SQL("hot", "SELECT ts, hot FROM det").
		Render("ifthenelse(hot[t], zoom(cam[t], 2), cam[t])").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "o.vmf")
	o := DefaultOptions()
	o.DB = db
	res, err := Synthesize(spec, out, o)
	if err != nil {
		t.Fatal(err)
	}
	// The rewrite should split cold/hot halves; cold half stream-copies.
	if res.RewriteStats.Skipped {
		t.Error("rewrite should fire")
	}
	if res.Metrics.Output.PacketsCopied == 0 {
		t.Error("cold half should copy")
	}
}
