package media

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"v2v/internal/container"
	"v2v/internal/frame"
	"v2v/internal/obs"
	"v2v/internal/rational"
)

func testInfo(gop int) container.StreamInfo {
	return container.StreamInfo{
		Codec: "GV10", Width: 160, Height: 48,
		FPS: rational.FromInt(24), Quality: 1, GOP: gop, Level: 2,
	}
}

// makeVideo writes n stamped frames and returns the path.
func makeVideo(t *testing.T, dir string, name string, info container.StreamInfo, n int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	w, err := CreateWriter(path, info)
	if err != nil {
		t.Fatalf("CreateWriter: %v", err)
	}
	for i := 0; i < n; i++ {
		fr := frame.New(info.Width, info.Height, frame.FormatYUV420)
		fr.Fill(byte(40+i%60), 128, 128)
		frame.Stamp(fr, uint32(i))
		if err := w.WriteFrame(fr); err != nil {
			t.Fatalf("WriteFrame(%d): %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// stampsOf decodes every frame of path and returns the stamp IDs.
func stampsOf(t *testing.T, path string) []uint32 {
	t.Helper()
	r, err := OpenReader(path)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	defer r.Close()
	out := make([]uint32, r.NumFrames())
	for i := range out {
		fr, err := r.FrameAtIndex(i)
		if err != nil {
			t.Fatalf("FrameAtIndex(%d): %v", i, err)
		}
		id, ok := frame.ReadStamp(fr)
		if !ok {
			t.Fatalf("frame %d has no stamp", i)
		}
		out[i] = id
	}
	return out
}

func seq(lo, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(lo + i)
	}
	return out
}

func eqU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := makeVideo(t, dir, "a.vmf", testInfo(6), 20)
	if got := stampsOf(t, path); !eqU32(got, seq(0, 20)) {
		t.Errorf("stamps = %v", got)
	}
	r, _ := OpenReader(path)
	defer r.Close()
	rec := obs.NewRecorder()
	r.SetRecorder(rec)
	if r.NumFrames() != 20 {
		t.Errorf("NumFrames = %d", r.NumFrames())
	}
	if rec.Stage(obs.StageDecode).Frames != 0 {
		t.Error("opening a reader should decode nothing")
	}
}

func TestRandomAccess(t *testing.T) {
	dir := t.TempDir()
	path := makeVideo(t, dir, "a.vmf", testInfo(5), 23)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Jump around; each access must return the right frame.
	for _, i := range []int{7, 7, 22, 0, 11, 10, 12, 4} {
		fr, err := r.FrameAtIndex(i)
		if err != nil {
			t.Fatalf("FrameAtIndex(%d): %v", i, err)
		}
		if id, ok := frame.ReadStamp(fr); !ok || id != uint32(i) {
			t.Fatalf("frame %d stamp = %d,%v", i, id, ok)
		}
	}
	if _, err := r.FrameAtIndex(-1); err == nil {
		t.Error("negative index should error")
	}
	if _, err := r.FrameAtIndex(23); err == nil {
		t.Error("past-end index should error")
	}
}

func TestSequentialAccessDecodesOnce(t *testing.T) {
	dir := t.TempDir()
	path := makeVideo(t, dir, "a.vmf", testInfo(5), 20)
	r, _ := OpenReader(path)
	defer r.Close()
	rec := obs.NewRecorder()
	r.SetRecorder(rec)
	for i := 0; i < 20; i++ {
		if _, err := r.FrameAtIndex(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Stage(obs.StageDecode).Frames; got != 20 {
		t.Errorf("sequential scan decoded %d frames, want 20", got)
	}
	// Re-reading the current frame is free.
	r2, _ := OpenReader(path)
	defer r2.Close()
	rec2 := obs.NewRecorder()
	r2.SetRecorder(rec2)
	r2.FrameAtIndex(5)
	before := rec2.Stage(obs.StageDecode).Frames
	r2.FrameAtIndex(5)
	if rec2.Stage(obs.StageDecode).Frames != before {
		t.Error("repeat access should not re-decode")
	}
}

func TestFrameAtTime(t *testing.T) {
	dir := t.TempDir()
	path := makeVideo(t, dir, "a.vmf", testInfo(6), 24) // 1 second at 24fps
	r, _ := OpenReader(path)
	defer r.Close()
	fr, err := r.FrameAt(rational.New(1, 2)) // frame 12
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := frame.ReadStamp(fr); id != 12 {
		t.Errorf("t=1/2 stamp = %d", id)
	}
	if _, err := r.FrameAt(rational.New(1, 100)); err == nil {
		t.Error("off-grid time should error")
	}
	if _, err := r.FrameAt(rational.FromInt(5)); err == nil {
		t.Error("out-of-stream time should error")
	}
}

func TestIndexRangeFor(t *testing.T) {
	dir := t.TempDir()
	path := makeVideo(t, dir, "a.vmf", testInfo(6), 48) // 2 s at 24 fps
	r, _ := OpenReader(path)
	defer r.Close()
	cases := []struct {
		lo, hi rational.Rat
		w0, w1 int
	}{
		{rational.Zero, rational.FromInt(1), 0, 24},
		{rational.New(1, 2), rational.FromInt(1), 12, 24},
		{rational.New(1, 48), rational.New(1, 2), 1, 12}, // lo between frames -> round up
		{rational.FromInt(-1), rational.FromInt(9), 0, 48},
		{rational.FromInt(3), rational.FromInt(4), 48, 48},
	}
	for _, c := range cases {
		i0, i1 := r.IndexRangeFor(rational.Interval{Lo: c.lo, Hi: c.hi})
		if i0 != c.w0 || i1 != c.w1 {
			t.Errorf("IndexRangeFor([%v,%v)) = [%d,%d), want [%d,%d)", c.lo, c.hi, i0, i1, c.w0, c.w1)
		}
	}
}

func TestCopyRangeIsExact(t *testing.T) {
	dir := t.TempDir()
	src := makeVideo(t, dir, "src.vmf", testInfo(6), 24)
	r, _ := OpenReader(src)
	defer r.Close()

	out := filepath.Join(dir, "out.vmf")
	w, err := CreateWriter(out, r.Info())
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	w.SetRecorder(rec)
	// Copy GOP-aligned range [6, 18).
	if err := CopyRange(w, r, 6, 18); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := stampsOf(t, out); !eqU32(got, seq(6, 12)) {
		t.Errorf("copied stamps = %v", got)
	}
	if work := rec.Work(); work.PacketsCopied != 12 || work.FramesEncoded != 0 {
		t.Errorf("work = %+v", work)
	}
}

func TestCopyThenEncodeForcesKeyframe(t *testing.T) {
	dir := t.TempDir()
	src := makeVideo(t, dir, "src.vmf", testInfo(6), 12)
	r, _ := OpenReader(src)
	defer r.Close()

	out := filepath.Join(dir, "out.vmf")
	w, _ := CreateWriter(out, r.Info())
	if err := CopyRange(w, r, 0, 6); err != nil {
		t.Fatal(err)
	}
	fr := frame.New(160, 48, frame.FormatYUV420)
	frame.Stamp(fr, 99)
	if err := w.WriteFrame(fr); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := container.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Record(6).Key {
		t.Error("first encoded frame after a splice must be a keyframe")
	}
	want := append(seq(0, 6), 99)
	if got := stampsOf(t, out); !eqU32(got, want) {
		t.Errorf("stamps = %v, want %v", got, want)
	}
}

func TestSmartCutMidGOP(t *testing.T) {
	dir := t.TempDir()
	src := makeVideo(t, dir, "src.vmf", testInfo(6), 36) // keys at 0,6,12,18,24,30
	r, _ := OpenReader(src)
	defer r.Close()

	out := filepath.Join(dir, "out.vmf")
	w, _ := CreateWriter(out, r.Info())
	reenc, copied, err := SmartCut(w, r, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if reenc != 2 || copied != 14 {
		t.Errorf("reencoded=%d copied=%d, want 2, 14", reenc, copied)
	}
	if got := stampsOf(t, out); !eqU32(got, seq(4, 16)) {
		t.Errorf("stamps = %v", got)
	}
}

func TestSmartCutKeyAligned(t *testing.T) {
	dir := t.TempDir()
	src := makeVideo(t, dir, "src.vmf", testInfo(6), 24)
	r, _ := OpenReader(src)
	defer r.Close()
	out := filepath.Join(dir, "out.vmf")
	w, _ := CreateWriter(out, r.Info())
	reenc, copied, err := SmartCut(w, r, 6, 18)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if reenc != 0 || copied != 12 {
		t.Errorf("key-aligned cut reencoded=%d copied=%d, want 0, 12", reenc, copied)
	}
	if got := stampsOf(t, out); !eqU32(got, seq(6, 12)) {
		t.Errorf("stamps = %v", got)
	}
}

func TestSmartCutNoKeyframeInRange(t *testing.T) {
	// GOP 100 with a 30-frame file: only frame 0 is a key. A cut starting
	// at frame 3 finds no keyframe to copy from — the Q1-on-ToS case.
	dir := t.TempDir()
	src := makeVideo(t, dir, "src.vmf", testInfo(100), 30)
	r, _ := OpenReader(src)
	defer r.Close()
	out := filepath.Join(dir, "out.vmf")
	w, _ := CreateWriter(out, r.Info())
	reenc, copied, err := SmartCut(w, r, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if copied != 0 || reenc != 17 {
		t.Errorf("no-key cut reencoded=%d copied=%d, want 17, 0", reenc, copied)
	}
	if got := stampsOf(t, out); !eqU32(got, seq(3, 17)) {
		t.Errorf("stamps = %v", got)
	}
}

func TestSmartCutEquivalentToFullReencode(t *testing.T) {
	// At Q=1 the codec is lossless, so a smart cut must yield pixel-exact
	// identical frames to a full decode/re-encode of the same range.
	dir := t.TempDir()
	src := makeVideo(t, dir, "src.vmf", testInfo(5), 30)
	r, _ := OpenReader(src)
	defer r.Close()

	smart := filepath.Join(dir, "smart.vmf")
	w1, _ := CreateWriter(smart, r.Info())
	if _, _, err := SmartCut(w1, r, 3, 27); err != nil {
		t.Fatal(err)
	}
	w1.Close()

	full := filepath.Join(dir, "full.vmf")
	w2, _ := CreateWriter(full, r.Info())
	for i := 3; i < 27; i++ {
		fr, err := r.FrameAtIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.WriteFrame(fr); err != nil {
			t.Fatal(err)
		}
	}
	w2.Close()

	ra, _ := OpenReader(smart)
	rb, _ := OpenReader(full)
	defer ra.Close()
	defer rb.Close()
	if ra.NumFrames() != rb.NumFrames() {
		t.Fatalf("frame counts %d vs %d", ra.NumFrames(), rb.NumFrames())
	}
	for i := 0; i < ra.NumFrames(); i++ {
		fa, err := ra.FrameAtIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := rb.FrameAtIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		if !fa.Equal(fb) {
			t.Fatalf("frame %d differs between smart cut and full re-encode", i)
		}
	}
}

func TestSmartCutValidation(t *testing.T) {
	dir := t.TempDir()
	src := makeVideo(t, dir, "src.vmf", testInfo(6), 12)
	r, _ := OpenReader(src)
	defer r.Close()
	w, _ := CreateWriter(filepath.Join(dir, "out.vmf"), r.Info())
	defer w.Close()
	if _, _, err := SmartCut(w, r, -1, 5); err == nil {
		t.Error("negative start should error")
	}
	if _, _, err := SmartCut(w, r, 0, 99); err == nil {
		t.Error("past-end should error")
	}
	if _, _, err := SmartCut(w, r, 8, 4); err == nil {
		t.Error("inverted range should error")
	}
}

func TestIncompatibleSplice(t *testing.T) {
	dir := t.TempDir()
	src := makeVideo(t, dir, "src.vmf", testInfo(6), 12)
	r, _ := OpenReader(src)
	defer r.Close()
	other := testInfo(6)
	other.Width, other.Height = 64, 32
	w, _ := CreateWriter(filepath.Join(dir, "out.vmf"), other)
	defer w.Close()
	if w.Info().Mismatch(r.Info()) == "" {
		t.Error("different dimensions should not splice")
	}
	if err := CopyRange(w, r, 0, 6); err == nil {
		t.Error("CopyRange should reject incompatible streams")
	}
	if _, _, err := SmartCut(w, r, 0, 6); err == nil {
		t.Error("SmartCut should reject incompatible streams")
	}
}

func TestWriterRejectsAfterClose(t *testing.T) {
	dir := t.TempDir()
	w, _ := CreateWriter(filepath.Join(dir, "x.vmf"), testInfo(6))
	w.Close()
	fr := frame.New(160, 48, frame.FormatYUV420)
	if err := w.WriteFrame(fr); err == nil {
		t.Error("WriteFrame after close should error")
	}
	if err := w.WriteRawPacket(true, []byte{1}); err == nil {
		t.Error("WriteRawPacket after close should error")
	}
	if err := w.Close(); err != nil {
		t.Error("idempotent close should return stored error (nil)")
	}
}

func TestCreateWriterValidation(t *testing.T) {
	dir := t.TempDir()
	bad := testInfo(6)
	bad.Codec = "H264"
	if _, err := CreateWriter(filepath.Join(dir, "x.vmf"), bad); err == nil {
		t.Error("unknown codec should error")
	}
	odd := testInfo(6)
	odd.Width = 31
	if _, err := CreateWriter(filepath.Join(dir, "x.vmf"), odd); err == nil {
		t.Error("odd width should error")
	}
}

func TestPropertySmartCutEquivalentAtRandomRanges(t *testing.T) {
	// For any cut range, SmartCut output frames are pixel-identical to a
	// full decode/re-encode of the same range (Q=1 lossless).
	dir := t.TempDir()
	src := makeVideo(t, dir, "src.vmf", testInfo(7), 60) // keys every 7
	r, _ := OpenReader(src)
	defer r.Close()
	rnd := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		i0 := rnd.Intn(50)
		i1 := i0 + 1 + rnd.Intn(60-i0-1)

		smart := filepath.Join(dir, "s.vmf")
		w1, _ := CreateWriter(smart, r.Info())
		reenc, copied, err := SmartCut(w1, r, i0, i1)
		if err != nil {
			t.Fatalf("trial %d [%d,%d): %v", trial, i0, i1, err)
		}
		w1.Close()
		if reenc+copied != i1-i0 {
			t.Fatalf("trial %d: %d+%d != %d", trial, reenc, copied, i1-i0)
		}

		full := filepath.Join(dir, "f.vmf")
		w2, _ := CreateWriter(full, r.Info())
		for i := i0; i < i1; i++ {
			fr, err := r.FrameAtIndex(i)
			if err != nil {
				t.Fatal(err)
			}
			if err := w2.WriteFrame(fr); err != nil {
				t.Fatal(err)
			}
		}
		w2.Close()

		ra, _ := OpenReader(smart)
		rb, _ := OpenReader(full)
		if ra.NumFrames() != rb.NumFrames() {
			t.Fatalf("trial %d: counts differ", trial)
		}
		for i := 0; i < ra.NumFrames(); i++ {
			fa, _ := ra.FrameAtIndex(i)
			fb, _ := rb.FrameAtIndex(i)
			if fa == nil || fb == nil || !fa.Equal(fb) {
				t.Fatalf("trial %d [%d,%d): frame %d differs", trial, i0, i1, i)
			}
		}
		ra.Close()
		rb.Close()
		os.Remove(smart)
		os.Remove(full)
	}
}
