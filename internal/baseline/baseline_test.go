package baseline

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"v2v/internal/container"
	"v2v/internal/core"
	"v2v/internal/dataset"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/rational"
)

var (
	fxVid string
	fxAnn string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "v2v-baseline-")
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

func specSrc(body string) string {
	return fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; }
		data { bb: %q; }
		%s`, fxVid, fxAnn, body)
}

func readAll(t *testing.T, path string) []*frame.Frame {
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

func TestBaselineMatchesV2VOutput(t *testing.T) {
	// The baseline is the reference semantics: V2V optimized output must
	// match it pixel-for-pixel on every benchmark shape.
	for name, body := range map[string]string{
		"clip":  `render(t) = v[t + 1];`,
		"blur":  `render(t) = blur(v[t], 1.2);`,
		"boxes": `render(t) = boxes(v[t], bb[t]);`,
		"zoom":  `render(t) = zoom(v[t + 1/2], 2);`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			src := specSrc(body)
			bOut := filepath.Join(dir, "baseline.vmf")
			if _, err := RunSource(src, bOut, nil); err != nil {
				t.Fatal(err)
			}
			vOut := filepath.Join(dir, "v2v.vmf")
			if _, err := core.SynthesizeSource(src, vOut, core.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			fb, fv := readAll(t, bOut), readAll(t, vOut)
			if len(fb) != len(fv) {
				t.Fatalf("counts: baseline %d vs v2v %d", len(fb), len(fv))
			}
			for i := range fb {
				if !fb[i].Equal(fv[i]) {
					t.Fatalf("frame %d differs between baseline and V2V", i)
				}
			}
		})
	}
}

func TestBaselineDoesAllTheWork(t *testing.T) {
	// Even a pure clip decodes and encodes everything in the baseline.
	dir := t.TempDir()
	m, err := RunSource(specSrc(`render(t) = v[t + 1];`), filepath.Join(dir, "o.vmf"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Work.FramesDecoded != 48 {
		t.Errorf("decoded = %d, want 48", m.Work.FramesDecoded)
	}
	if m.Work.FramesEncoded != 48 {
		t.Errorf("encoded = %d, want 48", m.Work.FramesEncoded)
	}
	if m.Work.PacketsCopied != 0 {
		t.Errorf("baseline must not copy packets")
	}
	if m.FramesRendered != 48 || m.Wall <= 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestBaselineErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := RunSource("garbage", filepath.Join(dir, "x.vmf"), nil); err == nil {
		t.Error("bad spec should fail")
	}
	if _, err := RunSource(specSrc(`render(t) = v[t + 100];`), filepath.Join(dir, "x.vmf"), nil); err == nil {
		t.Error("out-of-range should fail via check")
	}
}

// TestFailedRunLeavesNothing: a corrupt source packet fails the run, and
// neither the output nor its temp file is left behind.
func TestFailedRunLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	raw, err := os.ReadFile(fxVid)
	if err != nil {
		t.Fatal(err)
	}
	r, err := container.Open(fxVid)
	if err != nil {
		t.Fatal(err)
	}
	rec := r.Record(30)
	r.Close()
	raw[rec.Offset+int64(rec.Size)/2] ^= 0xff
	vid := filepath.Join(dir, "damaged.vmf")
	if err := os.WriteFile(vid, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.vmf")
	src := fmt.Sprintf(`timedomain range(0, 2, 1/24); videos { v: %q; } render(t) = v[t];`, vid)
	if _, err := RunSource(src, out, nil); err == nil {
		t.Fatal("a corrupt packet should fail the run")
	}
	for _, p := range []string{out, out + ".tmp"} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("failed run left %s behind", p)
		}
	}
}
