package vql

import (
	"math/rand"
	"testing"

	"v2v/internal/frame"
	"v2v/internal/rational"
)

// noisyFrames serves a deterministic pseudo-random frame per (video, time):
// every pixel differs from its neighbours, so a body that skips a byte or
// reads the wrong one shows up in the output.
type noisyFrames struct{ w, h int }

func (f noisyFrames) SourceFrame(video string, t rational.Rat) (*frame.Frame, error) {
	fr := frame.New(f.w, f.h, frame.FormatYUV420)
	rand.New(rand.NewSource(int64(len(video))<<16 + t.Mul(rational.FromInt(24)).Floor())).Read(fr.Pix)
	return fr, nil
}

// TestTransformsWriteEveryByte renders every built-in frame transform —
// alone and nested in one expression — into destinations pre-filled with
// 0x00 and with 0xFF, as a pooled allocator hands out frames with stale
// pixels. Both must match the allocator-less result: a body that leaves a
// byte unwritten, or reads its destination, differs. The 38x30 frames
// have odd half-widths and half-heights, so compositions leave a margin no
// cell covers.
func TestTransformsWriteEveryByte(t *testing.T) {
	for _, src := range []string{
		`zoom(vid[t], 3/2)`,
		`blur(vid[t], 3/2)`,
		`sharpen(vid[t])`,
		`edges(vid[t])`,
		`denoise(vid[t])`,
		`grade(vid[t], 10, 6/5, 4/5)`,
		`grid(vid[t], vid[t + 1], vid[t], vid[t + 1])`,
		`gridn(vid[t], vid[t + 1], vid[t])`,
		`hstack(vid[t], vid[t + 1])`,
		`vstack(vid[t], vid[t + 1])`,
		`pip(vid[t], vid[t + 1], 6, 4, 3)`,
		`overlay(vid[t], scale(vid[t + 1], 12, 8), 5, 3, 150)`,
		`label(vid[t], "hi", 4, 4)`,
		`crossfade(vid[t], vid[t + 1], 1/3)`,
		`wipe(vid[t], vid[t + 1], 1/2)`,
		`scale(vid[t], 20, 14)`,
		`crop(vid[t], 2, 2, 16, 12)`,
		`grid(blur(vid[t], 1), zoom(vid[t + 1], 2), grade(vid[t], 5, 1, 1), crop(scale(vid[t], 76, 60), 0, 0, 38, 30))`,
		`boxes(vid[t], bb[t])`,
	} {
		e := mustParseExpr(t, src)
		if c, ok := e.(Call); ok && c.Name == "boxes" {
			c.Args[1] = DataRef{Name: "bb", Index: TimeVar{}} // declarations make it one in a spec
		}
		var got [3]*frame.Frame
		for i, fill := range []int{-1, 0x00, 0xFF} {
			ev := env(rational.One) // bb[1] holds a box
			ev.Frames = noisyFrames{w: 38, h: 30}
			if fill >= 0 {
				ev.Alloc = func(w, h int) *frame.Frame {
					fr := frame.New(w, h, frame.FormatYUV420)
					for j := range fr.Pix {
						fr.Pix[j] = byte(fill)
					}
					return fr
				}
			}
			v, err := Eval(e, ev)
			if err != nil || v.Type != TypeFrame {
				t.Fatalf("%s: %v %v", src, v.Type, err)
			}
			got[i] = v.Frame
		}
		if !got[1].Equal(got[0]) || !got[2].Equal(got[0]) {
			t.Errorf("%s: output depends on the destination's prior contents", src)
		}
	}
}
