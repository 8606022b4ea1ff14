package media

import (
	"testing"

	"v2v/internal/container"
	"v2v/internal/frame"
	"v2v/internal/obs"
	"v2v/internal/rational"
)

// sourceV opens path as the video "v" of a cursor pool, closing it when
// the test ends.
func sourceV(t *testing.T, path string) map[string]*container.Reader {
	t.Helper()
	c, err := container.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return map[string]*container.Reader{"v": c}
}

// recorded points c at a fresh recorder and returns it.
func recorded(c *Cursors) *obs.Recorder {
	rec := obs.NewRecorder()
	c.SetRecorder(rec)
	return rec
}

func TestCursorsSequentialAndInterleaved(t *testing.T) {
	dir := t.TempDir()
	path := makeVideo(t, dir, "a.vmf", testInfo(6), 48) // keys every 6 frames
	c := NewCursors(sourceV(t, path), 4)
	defer c.Close()
	rec := recorded(c)

	// Two interleaved taps: t and t+1s.
	for i := 0; i < 24; i++ {
		at := rational.New(int64(i), 24)
		fr, err := c.FrameAt("v", at)
		if err != nil {
			t.Fatal(err)
		}
		if id, _ := frame.ReadStamp(fr); id != uint32(i) {
			t.Fatalf("tap1 frame %d stamp = %d", i, id)
		}
		fr, err = c.FrameAt("v", at.Add(rational.One))
		if err != nil {
			t.Fatal(err)
		}
		if id, _ := frame.ReadStamp(fr); id != uint32(24+i) {
			t.Fatalf("tap2 frame %d stamp = %d", i, id)
		}
	}
	// Each tap decodes its 24 frames once; allow slack for keyframe
	// alignment on the second tap (starts at a keyframe, so none needed).
	if got := rec.Stage(obs.StageDecode).Frames; got > 48 {
		t.Errorf("decoded %d frames for 48 reads; cursors not reused", got)
	}
}

func TestCursorsRepeatReadIsFree(t *testing.T) {
	dir := t.TempDir()
	path := makeVideo(t, dir, "a.vmf", testInfo(6), 12)
	c := NewCursors(sourceV(t, path), 2)
	defer c.Close()
	rec := recorded(c)
	at := rational.New(5, 24)
	if _, err := c.FrameAt("v", at); err != nil {
		t.Fatal(err)
	}
	before := rec.Stage(obs.StageDecode).Frames
	for i := 0; i < 5; i++ {
		if _, err := c.FrameAt("v", at); err != nil {
			t.Fatal(err)
		}
	}
	if after := rec.Stage(obs.StageDecode).Frames; after != before {
		t.Errorf("repeat reads decoded %d extra frames", after-before)
	}
}

func TestCursorsPoolCapRecycles(t *testing.T) {
	dir := t.TempDir()
	path := makeVideo(t, dir, "a.vmf", testInfo(6), 48)
	c := NewCursors(sourceV(t, path), 2)
	defer c.Close()
	// Three far-apart taps with a pool of two: still correct, just slower.
	offsets := []rational.Rat{rational.Zero, rational.New(16, 24), rational.New(32, 24)}
	for i := 0; i < 8; i++ {
		for k, off := range offsets {
			at := off.Add(rational.New(int64(i), 24))
			fr, err := c.FrameAt("v", at)
			if err != nil {
				t.Fatal(err)
			}
			want := uint32(16*k + i)
			if id, _ := frame.ReadStamp(fr); id != want {
				t.Fatalf("tap %d frame %d stamp = %d, want %d", k, i, id, want)
			}
		}
	}
	if got := len(c.open["v"]); got > 2 {
		t.Errorf("pool grew to %d cursors, cap 2", got)
	}
}

func TestCursorsErrors(t *testing.T) {
	dir := t.TempDir()
	path := makeVideo(t, dir, "a.vmf", testInfo(6), 12)
	c := NewCursors(sourceV(t, path), 0) // default cap
	defer c.Close()
	if _, err := c.FrameAt("ghost", rational.Zero); err == nil {
		t.Error("unknown video should fail")
	}
	if _, err := c.FrameAt("v", rational.New(1, 100)); err == nil {
		t.Error("off-grid time should fail")
	}
	if _, err := c.FrameAt("v", rational.FromInt(99)); err == nil {
		t.Error("out-of-range time should fail")
	}
}

// TestCursorsStaggeredTapsDecodeOncePerTap is the 2 s ToS grid's access
// pattern: four taps of one video seven seconds apart in ten-second GOPs,
// read interleaved. Two of them share a GOP, and neither may cost the
// other its cursor: every tap rolls forward once from the keyframe before
// its first read and then decodes each of its frames once.
func TestCursorsStaggeredTapsDecodeOncePerTap(t *testing.T) {
	const gop, frames, apart, first = 240, 48, 7 * 24, 55
	path := makeVideo(t, t.TempDir(), "a.vmf", testInfo(gop), first+3*apart+frames)
	c := NewCursors(sourceV(t, path), 0)
	defer c.Close()
	rec := recorded(c)
	var want int64
	for k := 0; k < 4; k++ {
		want += int64((first+k*apart)%gop + frames)
	}
	for i := 0; i < frames; i++ {
		for k := 0; k < 4; k++ {
			idx := first + k*apart + i
			fr, err := c.FrameAt("v", rational.New(int64(idx), 24))
			if err != nil {
				t.Fatal(err)
			}
			if id, _ := frame.ReadStamp(fr); id != uint32(idx) {
				t.Fatalf("tap %d frame %d stamp = %d, want %d", k, i, id, idx)
			}
			fr.Release()
		}
	}
	if got := len(c.open["v"]); got != 4 {
		t.Errorf("%d cursors open for four taps", got)
	}
	if got := rec.Stage(obs.StageDecode).Frames; got != want {
		t.Errorf("decoded %d frames, want %d: each tap's roll-forward plus its %d frames, once", got, want, frames)
	}
}
