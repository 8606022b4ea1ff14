package raster

import (
	"math/rand"
	"testing"

	"v2v/internal/frame"
)

// randomFrame returns a deterministic pseudo-random YUV420 frame.
func randomFrame(rng *rand.Rand, w, h int) *frame.Frame {
	fr := frame.New(w, h, frame.FormatYUV420)
	rng.Read(fr.Pix)
	return fr
}

// refGrade, refCrossfade, refWipeLR and refOverlay are the frame-at-a-time
// point ops this package shipped before PointOp became their only form —
// a full pass and a fresh frame per op — kept as the oracle the kernels
// must match byte for byte.
func refGrade(src *frame.Frame, brightness int, contrast, saturation float64) *frame.Frame {
	dst := src.Clone()
	p := dst.Planes()
	var lumaLUT, chromaLUT [256]byte
	for i := 0; i < 256; i++ {
		lumaLUT[i] = clampF((float64(i)-128)*contrast + 128 + float64(brightness))
		chromaLUT[i] = clampF((float64(i)-128)*saturation + 128)
	}
	for i, v := range p[0] {
		p[0][i] = lumaLUT[v]
	}
	for i, v := range p[1] {
		p[1][i] = chromaLUT[v]
	}
	for i, v := range p[2] {
		p[2][i] = chromaLUT[v]
	}
	return dst
}

func refCrossfade(a, b *frame.Frame, t float64) *frame.Frame {
	if t <= 0 {
		return a.Clone()
	}
	if t >= 1 {
		return b.Clone()
	}
	alpha := int(t*255 + 0.5)
	out := a.Clone()
	for i := range out.Pix {
		out.Pix[i] = byte((int(b.Pix[i])*alpha + int(a.Pix[i])*(255-alpha) + 127) / 255)
	}
	return out
}

func refWipeLR(a, b *frame.Frame, t float64) *frame.Frame {
	if t <= 0 {
		return a.Clone()
	}
	if t >= 1 {
		return b.Clone()
	}
	cut := even(int(t * float64(a.W)))
	out := a.Clone()
	op, bp := out.Planes(), b.Planes()
	for row := 0; row < a.H; row++ {
		copy(op[0][row*a.W:row*a.W+cut], bp[0][row*a.W:row*a.W+cut])
	}
	cw := a.W / 2
	for row := 0; row < a.H/2; row++ {
		copy(op[1][row*cw:row*cw+cut/2], bp[1][row*cw:row*cw+cut/2])
		copy(op[2][row*cw:row*cw+cut/2], bp[2][row*cw:row*cw+cut/2])
	}
	return out
}

func refOverlay(base, image *frame.Frame, x, y int, alpha int) *frame.Frame {
	img := image
	if img.Format != frame.FormatYUV420 {
		img = image.Convert(frame.FormatYUV420)
	}
	a := min(max(alpha, 0), 255)
	dst := base.Clone()
	dp, ip := dst.Planes(), img.Planes()
	for row := 0; row < img.H; row++ {
		dy := y + row
		if dy < 0 || dy >= dst.H {
			continue
		}
		for col := 0; col < img.W; col++ {
			dx := x + col
			if dx < 0 || dx >= dst.W {
				continue
			}
			di, si := dy*dst.W+dx, row*img.W+col
			dp[0][di] = byte((int(ip[0][si])*a + int(dp[0][di])*(255-a) + 127) / 255)
		}
	}
	dcw, icw := dst.W/2, img.W/2
	for row := 0; row < img.H/2; row++ {
		dy := y/2 + row
		if dy < 0 || dy >= dst.H/2 {
			continue
		}
		for col := 0; col < icw; col++ {
			dx := x/2 + col
			if dx < 0 || dx >= dcw {
				continue
			}
			di, si := dy*dcw+dx, row*icw+col
			dp[1][di] = byte((int(ip[1][si])*a + int(dp[1][di])*(255-a) + 127) / 255)
			dp[2][di] = byte((int(ip[2][si])*a + int(dp[2][di])*(255-a) + 127) / 255)
		}
	}
	return dst
}

// apply runs one point op into a fresh destination.
func apply(src *frame.Frame, op PointOp) *frame.Frame {
	dst := frame.New(src.W, src.H, frame.FormatYUV420)
	ApplyFused(dst, src, []PointOp{op})
	return dst
}

func TestKernelsMatchStandaloneOps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := randomFrame(rng, 64, 36)
	b := randomFrame(rng, 64, 36)
	small := randomFrame(rng, 20, 12)

	for _, tc := range []struct {
		name string
		op   PointOp
		ref  *frame.Frame
	}{
		{"grade", GradeOp(12, 1.25, 0.8), refGrade(src, 12, 1.25, 0.8)},
		{"grade-extreme", GradeOp(-200, 3.5, 0), refGrade(src, -200, 3.5, 0)},
		{"crossfade-mid", CrossfadeOp(b, 0.37), refCrossfade(src, b, 0.37)},
		{"crossfade-zero", CrossfadeOp(b, 0), refCrossfade(src, b, 0)},
		{"crossfade-one", CrossfadeOp(b, 1), refCrossfade(src, b, 1)},
		{"crossfade-near-one", CrossfadeOp(b, 0.999), refCrossfade(src, b, 0.999)},
		{"wipe-mid", WipeOp(b, 0.43), refWipeLR(src, b, 0.43)},
		// t small enough that the even() cut collapses to 0.
		{"wipe-tiny", WipeOp(b, 0.01), refWipeLR(src, b, 0.01)},
		{"wipe-one", WipeOp(b, 1), refWipeLR(src, b, 1)},
		{"overlay", OverlayOp(small, 10, 6, 180), refOverlay(src, small, 10, 6, 180)},
		{"overlay-negative-offset", OverlayOp(small, -7, -3, 200), refOverlay(src, small, -7, -3, 200)},
		{"overlay-clipped-right", OverlayOp(small, 58, 30, 255), refOverlay(src, small, 58, 30, 255)},
		{"overlay-alpha-clamped", OverlayOp(small, 4, 4, 999), refOverlay(src, small, 4, 4, 999)},
	} {
		got := frame.New(src.W, src.H, frame.FormatYUV420)
		got.Pix[0] = 0x55 // stale contents must not leak through
		ApplyFused(got, src, []PointOp{tc.op})
		if !got.Equal(tc.ref) {
			t.Errorf("%s: kernel output differs from the reference op", tc.name)
		}
	}
}

func TestFusedChainMatchesSequentialOps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := randomFrame(rng, 48, 32)
	b := randomFrame(rng, 48, 32)
	logo := randomFrame(rng, 16, 8)

	want := refGrade(refGrade(refOverlay(refCrossfade(src, b, 0.6), logo, 3, 5, 128), -10, 1.4, 1.2), 7, 0.9, 1.1)

	ops := []PointOp{
		CrossfadeOp(b, 0.6),
		OverlayOp(logo, 3, 5, 128),
		GradeOp(-10, 1.4, 1.2),
		GradeOp(7, 0.9, 1.1), // adjacent grades compose into one table
	}
	got := frame.New(48, 32, frame.FormatYUV420)
	ApplyFused(got, src, ops)
	if !got.Equal(want) {
		t.Fatal("4-op fused chain differs from the sequential reference ops")
	}

	// In-place application (dst == src) on a copy must match too.
	inPlace := src.Clone()
	ApplyFused(inPlace, inPlace, ops)
	if !inPlace.Equal(want) {
		t.Fatal("in-place fused chain differs from the sequential reference ops")
	}
}

func TestApplyFusedShapePanics(t *testing.T) {
	src := frame.New(16, 16, frame.FormatYUV420)
	other := frame.New(32, 16, frame.FormatYUV420)
	defer func() {
		if r := recover(); r != "raster: Crossfade frames must be same shape" {
			t.Fatalf("panic = %v, want Crossfade shape message", r)
		}
	}()
	ApplyFused(frame.New(16, 16, frame.FormatYUV420), src, []PointOp{CrossfadeOp(other, 0.5)})
}

func TestApplyFusedZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := randomFrame(rng, 64, 32)
	b := randomFrame(rng, 64, 32)
	dst := frame.New(64, 32, frame.FormatYUV420)
	ops := []PointOp{GradeOp(5, 1.1, 0.9), CrossfadeOp(b, 0.5), WipeOp(b, 0.25)}
	allocs := testing.AllocsPerRun(50, func() {
		ApplyFused(dst, src, ops)
	})
	if allocs != 0 {
		t.Fatalf("ApplyFused allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestScaleSameSizeReturnsSrc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randomFrame(rng, 32, 16)
	if got := Scale(src, 32, 16); got != src {
		t.Fatal("Scale to identical dimensions should return src itself")
	}
}

func TestScaleIntoMatchesScale(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := randomFrame(rng, 62, 34)
	want := Scale(src, 32, 20)
	dst := frame.New(32, 20, frame.FormatYUV420)
	dst.Pix[0] = 0xEE
	ScaleInto(dst, src)
	if !dst.Equal(want) {
		t.Fatal("ScaleInto differs from Scale")
	}
	// Same-size path must be a pure copy.
	same := frame.New(62, 34, frame.FormatYUV420)
	ScaleInto(same, src)
	if !same.Equal(src) {
		t.Fatal("same-size ScaleInto differs from src")
	}
}
