package raster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"v2v/internal/frame"
)

func noisy(w, h int, seed int64) *frame.Frame {
	fr := frame.New(w, h, frame.FormatYUV420)
	rnd := rand.New(rand.NewSource(seed))
	for i := range fr.Pix {
		fr.Pix[i] = byte(rnd.Intn(256))
	}
	return fr
}

func flat(w, h int, c Color) *frame.Frame {
	fr := frame.New(w, h, frame.FormatYUV420)
	fr.Fill(c.Y, c.Cb, c.Cr)
	return fr
}

// like returns a fresh destination shaped like fr.
func like(fr *frame.Frame) *frame.Frame { return frame.New(fr.W, fr.H, frame.FormatYUV420) }

func crop(src *frame.Frame, x, y, w, h int) *frame.Frame {
	dst := frame.New(w, h, frame.FormatYUV420)
	CropInto(dst, src, x, y)
	return dst
}

func zoom(src *frame.Frame, factor float64) *frame.Frame {
	dst := like(src)
	ZoomInto(dst, src, factor)
	return dst
}

func mean(p []byte) float64 {
	var s float64
	for _, v := range p {
		s += float64(v)
	}
	return s / float64(len(p))
}

func TestScaleIdentity(t *testing.T) {
	src := noisy(32, 16, 1)
	dst := Scale(src, 32, 16)
	if !dst.Equal(src) {
		t.Error("same-size scale should be identity")
	}
	// The identity path returns src itself (no copy) — callers must clone
	// before mutating. See the Scale doc comment.
	if dst != src {
		t.Error("same-size scale should return src (zero-copy identity)")
	}
}

func TestScaleFlatStaysFlat(t *testing.T) {
	src := flat(32, 16, Color{77, 100, 200})
	dst := Scale(src, 64, 32)
	p := dst.Planes()
	for i, v := range p[0] {
		if v != 77 {
			t.Fatalf("luma[%d] = %d", i, v)
		}
	}
	for i := range p[1] {
		if p[1][i] != 100 || p[2][i] != 200 {
			t.Fatalf("chroma[%d] = %d/%d", i, p[1][i], p[2][i])
		}
	}
}

func TestScalePreservesMeanRoughly(t *testing.T) {
	src := noisy(64, 64, 2)
	dst := Scale(src, 32, 32)
	sm, dm := mean(src.Planes()[0]), mean(dst.Planes()[0])
	if math.Abs(sm-dm) > 3 {
		t.Errorf("mean shifted %f -> %f", sm, dm)
	}
	up := Scale(src, 128, 128)
	um := mean(up.Planes()[0])
	if math.Abs(sm-um) > 3 {
		t.Errorf("upscale mean shifted %f -> %f", sm, um)
	}
}

func TestScaleValidation(t *testing.T) {
	src := noisy(16, 16, 3)
	for _, dims := range [][2]int{{0, 16}, {16, 0}, {15, 16}, {16, 15}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scale to %v did not panic", dims)
				}
			}()
			Scale(src, dims[0], dims[1])
		}()
	}
}

func TestCrop(t *testing.T) {
	src := frame.New(16, 16, frame.FormatYUV420)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			src.SetLuma(x, y, byte(y*16+x))
		}
	}
	dst := crop(src, 4, 6, 8, 4)
	if dst.W != 8 || dst.H != 4 {
		t.Fatalf("crop dims %dx%d", dst.W, dst.H)
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 8; x++ {
			want := byte((y+6)*16 + x + 4)
			if got := dst.Luma(x, y); got != want {
				t.Fatalf("crop luma (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestCropValidation(t *testing.T) {
	src := noisy(16, 16, 4)
	bad := [][4]int{{1, 0, 4, 4}, {0, 1, 4, 4}, {0, 0, 3, 4}, {0, 0, 4, 3}, {-2, 0, 4, 4}, {14, 0, 4, 4}, {0, 0, 0, 4}}
	for _, b := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Crop %v did not panic", b)
				}
			}()
			crop(src, b[0], b[1], b[2], b[3])
		}()
	}
}

func TestZoom(t *testing.T) {
	src := flat(32, 32, Color{10, 128, 128})
	// Bright center region: after 2x zoom the whole frame should be bright.
	FillRect(src, Rect{8, 8, 16, 16}, Color{200, 128, 128})
	z := zoom(src, 2.0)
	if z.W != 32 || z.H != 32 {
		t.Fatalf("zoom dims %dx%d", z.W, z.H)
	}
	if m := mean(z.Planes()[0]); m < 190 {
		t.Errorf("zoomed mean luma = %f, want bright", m)
	}
	if !zoom(src, 1.0).Equal(src) {
		t.Error("zoom 1.0 should be identity")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zoom < 1 should panic")
			}
		}()
		zoom(src, 0.5)
	}()
}

func TestGaussianBlurSmooths(t *testing.T) {
	src := flat(32, 32, Color{0, 128, 128})
	FillRect(src, Rect{16, 0, 2, 32}, White) // vertical line
	dst := GaussianBlur(src, 1.5)
	if dst.Luma(17, 16) >= src.Luma(17, 16) {
		t.Error("line should dim")
	}
	if dst.Luma(13, 16) <= 0 {
		t.Error("blur should spread energy")
	}
	// Mean energy is conserved within rounding.
	if d := math.Abs(mean(src.Planes()[0]) - mean(dst.Planes()[0])); d > 1 {
		t.Errorf("blur changed mean by %f", d)
	}
	// sigma <= 0 is a zero-copy identity: src itself, not a clone — callers
	// must clone before mutating. See the GaussianBlur doc comment.
	for _, sigma := range []float64{0, -1} {
		if GaussianBlur(src, sigma) != src {
			t.Errorf("sigma %v should return src (zero-copy identity)", sigma)
		}
	}
}

// refGaussianKernel and refBlurPlane are the textbook blur this package
// shipped before BlurInto — full unfolded kernel, a clamp per tap, a
// plane-sized int32 temporary, a column-strided vertical pass — kept
// verbatim as the oracle the production kernel must match byte for byte.
func refGaussianKernel(sigma float64) []int32 {
	radius := int(math.Ceil(3 * sigma))
	if radius < 1 {
		radius = 1
	}
	if radius > 15 {
		radius = 15
	}
	raw := make([]float64, 2*radius+1)
	var sum float64
	for i := range raw {
		d := float64(i - radius)
		raw[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += raw[i]
	}
	k := make([]int32, len(raw))
	var isum int32
	for i, v := range raw {
		k[i] = int32(v / sum * (1 << kShift))
		isum += k[i]
	}
	k[radius] += (1 << kShift) - isum
	return k
}

func refBlurPlane(src, dst []byte, w, h int, kernel []int32) {
	radius := len(kernel) / 2
	tmp := make([]int32, w*h)
	for y := 0; y < h; y++ {
		row := src[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			var acc int32
			for k := -radius; k <= radius; k++ {
				sx := x + k
				if sx < 0 {
					sx = 0
				} else if sx >= w {
					sx = w - 1
				}
				acc += int32(row[sx]) * kernel[k+radius]
			}
			tmp[y*w+x] = acc >> kShift
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc int32
			for k := -radius; k <= radius; k++ {
				sy := y + k
				if sy < 0 {
					sy = 0
				} else if sy >= h {
					sy = h - 1
				}
				acc += tmp[sy*w+x] * kernel[k+radius]
			}
			v := acc >> kShift
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			dst[y*w+x] = byte(v)
		}
	}
}

// TestBlurIntoMatchesReference pins BlurInto to the reference over random
// frames: planes narrower or shorter than the radius (down to the 1x1
// chroma of a 2x2 frame), odd chroma sizes, both dataset geometries and
// their chroma halves, every radius from 1 to the cap of 15 — through one
// scratch and one dirty destination per size, as the executor reuses them.
func TestBlurIntoMatchesReference(t *testing.T) {
	sizes := [][2]int{
		{2, 2}, {4, 2}, {2, 4}, {6, 10}, {2, 64}, {64, 2}, {10, 40}, {40, 10}, {34, 30},
		{384, 172}, {192, 86}, {384, 216}, {192, 108},
	}
	sigmas := []float64{0.2, 0.34, 0.6, 1, 1.2, 1.5, 2, 2.9, 3.7, 4.5, 5, 6}
	seed := int64(0)
	for _, sigma := range sigmas {
		ref := refGaussianKernel(sigma)
		k := gaussianKernel(sigma)
		if k.r != len(ref)/2 {
			t.Fatalf("sigma %v: radius %d, reference %d", sigma, k.r, len(ref)/2)
		}
		for d := 0; d <= k.r; d++ {
			if k.taps[d] != uint64(ref[k.r+d]) || ref[k.r+d] != ref[k.r-d] {
				t.Fatalf("sigma %v: tap %d is %d, reference %d/%d", sigma, d, k.taps[d], ref[k.r-d], ref[k.r+d])
			}
		}
		for _, sz := range sizes {
			w, h := sz[0], sz[1]
			seed++
			src := noisy(w, h, seed)
			want := frame.New(w, h, frame.FormatYUV420)
			sp, wp := src.Planes(), want.Planes()
			refBlurPlane(sp[0], wp[0], w, h, ref)
			refBlurPlane(sp[1], wp[1], w/2, h/2, ref)
			refBlurPlane(sp[2], wp[2], w/2, h/2, ref)

			got := noisy(w, h, -seed) // stale contents must all be overwritten
			BlurInto(got, src, sigma)
			if !got.Equal(want) {
				t.Errorf("sigma %v (radius %d) %dx%d: BlurInto differs from the reference", sigma, len(ref)/2, w, h)
			}
			if !GaussianBlur(src, sigma).Equal(want) {
				t.Errorf("sigma %v %dx%d: GaussianBlur differs from the reference", sigma, w, h)
			}
		}
	}
}

// refBlur is refBlurPlane applied to every plane of src.
func refBlur(src *frame.Frame, sigma float64) *frame.Frame {
	ref := refGaussianKernel(sigma)
	want := frame.New(src.W, src.H, frame.FormatYUV420)
	sp, wp := src.Planes(), want.Planes()
	refBlurPlane(sp[0], wp[0], src.W, src.H, ref)
	refBlurPlane(sp[1], wp[1], src.W/2, src.H/2, ref)
	refBlurPlane(sp[2], wp[2], src.W/2, src.H/2, ref)
	return want
}

// TestBlurIntoLaneBound drives every lane of the packed words to the top of
// its range, where random noise almost never goes: all-255 planes make each
// weighted sum exactly 255<<kShift, and 0/255 column stripes and
// checkerboards put full and empty pixels side by side in adjacent lanes
// with the sums' fractional bits set. A lane that carried into its
// neighbour, or a dropped lane mask, shows up here. The luma widths 6, 8,
// 10 and 14 (chroma 3, 4, 5 and 7) leave every remainder mod 3 at the row's
// end, and every radius from 1 to the cap of 15 runs on each.
func TestBlurIntoLaneBound(t *testing.T) {
	patterns := map[string]func(x, y int) byte{
		"all-255": func(x, y int) byte { return 255 },
		"stripes": func(x, y int) byte { return byte(255 * (x & 1)) },
		"checker": func(x, y int) byte { return byte(255 * ((x + y) & 1)) },
	}
	for r := 1; r <= maxRadius; r++ {
		sigma := (float64(r) - 0.5) / 3 // radius ceil(3*sigma) = r
		if k := gaussianKernel(sigma); k.r != r {
			t.Fatalf("sigma %v: radius %d, want %d", sigma, k.r, r)
		}
		for name, at := range patterns {
			for _, w := range []int{6, 8, 10, 14} {
				for _, h := range []int{6, 2*r + 4} {
					src := frame.New(w, h, frame.FormatYUV420)
					for i, p := range src.Planes() {
						pw := w >> min(i, 1)
						for j := range p {
							p[j] = at(j%pw, j/pw)
						}
					}
					got := noisy(w, h, int64(r))
					BlurInto(got, src, sigma)
					if !got.Equal(refBlur(src, sigma)) {
						t.Errorf("radius %d %s %dx%d: BlurInto differs from the reference", r, name, w, h)
					}
				}
			}
		}
	}
}

// FuzzBlurInto holds BlurInto to the reference on planes the fuzzer picks:
// an even width of 2 to 64 and height of 2 to 48, a sigma in [0.01, 16]
// (every radius up to the cap), and pixel bytes repeated to fill the frame.
func FuzzBlurInto(f *testing.F) {
	f.Add(uint8(2), uint8(3), 1.5, []byte{0, 255})
	f.Fuzz(func(t *testing.T, w8, h8 uint8, sigma float64, pix []byte) {
		if !(sigma >= 0.01 && sigma <= 16) || len(pix) == 0 {
			t.Skip()
		}
		w, h := 2+2*int(w8%32), 2+2*int(h8%24)
		src := frame.New(w, h, frame.FormatYUV420)
		for i := range src.Pix {
			src.Pix[i] = pix[i%len(pix)]
		}
		got := frame.New(w, h, frame.FormatYUV420)
		BlurInto(got, src, sigma)
		if !got.Equal(refBlur(src, sigma)) {
			t.Fatalf("%dx%d sigma %v: BlurInto differs from the reference", w, h, sigma)
		}
	})
}

func TestBlurIntoZeroAlloc(t *testing.T) {
	src := noisy(64, 48, 3)
	dst := frame.New(64, 48, frame.FormatYUV420)
	BlurInto(dst, src, 1.5) // grows a pooled scratch
	if allocs := testing.AllocsPerRun(50, func() { BlurInto(dst, src, 1.5) }); allocs != 0 {
		t.Errorf("warm BlurInto allocates %.1f per call, want 0", allocs)
	}
}

func TestBlurIntoShapePanics(t *testing.T) {
	src := noisy(16, 16, 1)
	for name, dst := range map[string]*frame.Frame{
		"aliased":  src,
		"mismatch": frame.New(16, 8, frame.FormatYUV420),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s dst should panic", name)
				}
			}()
			BlurInto(dst, src, 1)
		}()
	}
}

func TestGaussianBlurFlatInvariant(t *testing.T) {
	src := flat(16, 16, Color{99, 70, 180})
	dst := GaussianBlur(src, 2.0)
	for i := range dst.Pix {
		if d := int(dst.Pix[i]) - int(src.Pix[i]); d < -1 || d > 1 {
			t.Fatalf("flat blur moved pixel %d by %d", i, d)
		}
	}
}

func TestGaussianBlurDeterministic(t *testing.T) {
	src := noisy(32, 32, 5)
	a, b := GaussianBlur(src, 1.2), GaussianBlur(src, 1.2)
	if !a.Equal(b) {
		t.Error("blur must be deterministic")
	}
}

func TestSharpenAndEdge(t *testing.T) {
	src := flat(16, 16, Color{50, 128, 128})
	FillRect(src, Rect{8, 0, 8, 16}, Color{200, 128, 128})
	sh := like(src)
	SharpenInto(sh, src)
	if sh.W != 16 || sh.H != 16 {
		t.Fatal("sharpen dims")
	}
	// Sharpen should overshoot at the edge.
	if sh.Luma(8, 8) <= src.Luma(8, 8) {
		t.Error("sharpen should overshoot bright side of edge")
	}
	ed := like(src)
	EdgeDetectInto(ed, src)
	if ed.Luma(2, 8) != 0 {
		t.Error("flat region should be zero edge response")
	}
	if ed.Luma(8, 8) == 0 {
		t.Error("edge should respond")
	}
	p := ed.Planes()
	if p[1][0] != 128 || p[2][0] != 128 {
		t.Error("edge map should have neutral chroma")
	}
}

func TestGrade(t *testing.T) {
	src := flat(16, 16, Color{100, 100, 156})
	br := apply(src, GradeOp(20, 1.0, 1.0))
	if br.Luma(0, 0) != 120 {
		t.Errorf("brightness = %d", br.Luma(0, 0))
	}
	ct := apply(src, GradeOp(0, 2.0, 1.0))
	if ct.Luma(0, 0) != 72 { // (100-128)*2+128
		t.Errorf("contrast = %d", ct.Luma(0, 0))
	}
	st := apply(src, GradeOp(0, 1.0, 0.0))
	p := st.Planes()
	if p[1][0] != 128 || p[2][0] != 128 {
		t.Error("saturation 0 should neutralize chroma")
	}
	id := apply(src, GradeOp(0, 1.0, 1.0))
	if !id.Equal(src) {
		t.Error("identity grade changed pixels")
	}
}

func TestDenoiseFlatInvariant(t *testing.T) {
	src := flat(16, 16, Color{99, 70, 180})
	d := like(src)
	DenoiseInto(d, src)
	if !d.Equal(src) {
		t.Error("flat denoise should be exact identity")
	}
	n := noisy(16, 16, 6)
	DenoiseInto(d, n)
	// Variance should drop.
	varOf := func(p []byte) float64 {
		m := mean(p)
		var s float64
		for _, v := range p {
			s += (float64(v) - m) * (float64(v) - m)
		}
		return s / float64(len(p))
	}
	if varOf(d.Planes()[0]) >= varOf(n.Planes()[0]) {
		t.Error("denoise should reduce variance")
	}
}

func TestFillRectAndClip(t *testing.T) {
	fr := flat(16, 16, Black)
	FillRect(fr, Rect{-4, -4, 8, 8}, White)
	if fr.Luma(3, 3) != 255 || fr.Luma(4, 4) != 0 {
		t.Error("clipped fill wrong")
	}
	FillRect(fr, Rect{100, 100, 8, 8}, White) // fully outside: no panic
	FillRect(fr, Rect{0, 0, 0, 8}, White)     // degenerate: no-op
}

func TestDrawRect(t *testing.T) {
	fr := flat(32, 32, Black)
	DrawRect(fr, Rect{4, 4, 24, 24}, 2, White)
	if fr.Luma(4, 4) != 255 || fr.Luma(5, 5) != 255 {
		t.Error("border missing")
	}
	if fr.Luma(16, 16) != 0 {
		t.Error("interior should be untouched")
	}
	if fr.Luma(27, 16) != 255 {
		t.Error("right border missing")
	}
}

func TestDrawTextAndWidth(t *testing.T) {
	fr := flat(128, 32, Black)
	DrawText(fr, 2, 2, "AB 12", 1, White)
	// 'A' glyph row 0 = 0x0E -> pixels at x=3,4,5 (cols 1..3).
	if fr.Luma(3, 2) != 255 || fr.Luma(2, 2) != 0 {
		t.Error("glyph A top row wrong")
	}
	if got := TextWidth("AB 12", 1); got != 5*(GlyphWidth+1)-1 {
		t.Errorf("TextWidth = %d", got)
	}
	if TextWidth("", 3) != 0 {
		t.Error("empty TextWidth")
	}
	// Lowercase maps to uppercase; unknown maps to '?'. Both draw something.
	fr2 := flat(64, 16, Black)
	DrawText(fr2, 0, 0, "a", 1, White)
	fr3 := flat(64, 16, Black)
	DrawText(fr3, 0, 0, "A", 1, White)
	if !fr2.Equal(fr3) {
		t.Error("lowercase should render as uppercase")
	}
	fr4 := flat(64, 16, Black)
	DrawText(fr4, 0, 0, "~", 1, White)
	if mean(fr4.Planes()[0]) == 0 {
		t.Error("unknown rune should render fallback glyph")
	}
}

func TestLabelDrawsBackground(t *testing.T) {
	fr := flat(128, 32, Color{50, 128, 128})
	Label(fr, 4, 4, "OK", 1, Black, White)
	if fr.Luma(3, 3) != 255 {
		t.Error("label background missing")
	}
}

func TestBoundingBoxesEmptyIsIdentity(t *testing.T) {
	src := noisy(64, 64, 7)
	out := BoundingBoxes(src, nil)
	if !out.Equal(src) {
		t.Error("empty boxes should be identity (the f_dde invariant)")
	}
	out.Pix[0] ^= 1
	if src.Pix[0] == out.Pix[0] {
		t.Error("must not alias input")
	}
}

func TestBoundingBoxesDraw(t *testing.T) {
	src := flat(128, 128, Color{30, 128, 128})
	out := BoundingBoxes(src, []Box{{X: 20, Y: 40, W: 40, H: 30, Class: "ZEBRA", Track: 3}})
	if out.Equal(src) {
		t.Error("boxes should modify the frame")
	}
	if out.Luma(20, 40) == 30 {
		t.Error("box corner not drawn")
	}
	if out.Luma(40, 55) != 30 {
		t.Error("box interior should be untouched")
	}
}

func TestGrid2x2(t *testing.T) {
	a := flat(32, 32, Color{10, 128, 128})
	b := flat(32, 32, Color{60, 128, 128})
	c := flat(32, 32, Color{110, 128, 128})
	d := flat(32, 32, Color{160, 128, 128})
	g := Grid2x2(a, b, c, d)
	if g.W != 32 || g.H != 32 {
		t.Fatalf("grid dims %dx%d", g.W, g.H)
	}
	if g.Luma(8, 8) != 10 || g.Luma(24, 8) != 60 || g.Luma(8, 24) != 110 || g.Luma(24, 24) != 160 {
		t.Errorf("quadrants = %d %d %d %d", g.Luma(8, 8), g.Luma(24, 8), g.Luma(8, 24), g.Luma(24, 24))
	}
}

func TestGrid2x2MixedSizes(t *testing.T) {
	a := flat(32, 32, Color{10, 128, 128})
	b := flat(64, 16, Color{60, 128, 128})
	g := Grid2x2(a, b, b, a)
	if g.W != 32 || g.H != 32 {
		t.Fatalf("grid dims %dx%d", g.W, g.H)
	}
	if g.Luma(24, 8) != 60 {
		t.Error("scaled quadrant wrong")
	}
}

func TestGridN(t *testing.T) {
	fr := flat(36, 36, Color{50, 128, 128})
	g := like(fr)
	GridNInto(g, []*frame.Frame{fr, fr, fr}) // 2x2 grid with one empty cell
	if g.W != 36 || g.H != 36 {
		t.Fatal("gridN dims")
	}
	if g.Luma(27, 27) != 16 {
		t.Error("empty cell should be black")
	}
	single := like(fr)
	GridNInto(single, []*frame.Frame{fr})
	if single.Luma(5, 5) != 50 {
		t.Error("1-cell grid should show the frame")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty GridN should panic")
			}
		}()
		GridNInto(like(fr), nil)
	}()
}

func TestOverlay(t *testing.T) {
	base := flat(32, 32, Color{0, 128, 128})
	img := flat(8, 8, Color{255, 128, 128})
	out := apply(base, OverlayOp(img, 4, 4, 255))
	if out.Luma(5, 5) != 255 {
		t.Error("opaque overlay should replace")
	}
	if out.Luma(20, 20) != 0 {
		t.Error("outside overlay should be untouched")
	}
	half := apply(base, OverlayOp(img, 4, 4, 128))
	if v := half.Luma(5, 5); v < 120 || v > 136 {
		t.Errorf("half overlay luma = %d", v)
	}
	// Clipped overlay must not panic and must blend the visible part.
	clip := apply(base, OverlayOp(img, -4, -4, 255))
	if clip.Luma(1, 1) != 255 {
		t.Error("clipped overlay visible part wrong")
	}
	if clip.Luma(10, 10) != 0 {
		t.Error("clipped overlay overflowed")
	}
}

func TestOverlayConvertsFormat(t *testing.T) {
	base := flat(32, 32, Color{0, 128, 128})
	img := frame.New(8, 8, frame.FormatGray8)
	img.Fill(255, 0, 0)
	out := apply(base, OverlayOp(img, 0, 0, 255))
	if out.Luma(2, 2) != 255 {
		t.Error("gray overlay should convert and blend")
	}
}

func TestCrossfade(t *testing.T) {
	a := flat(16, 16, Color{0, 128, 128})
	b := flat(16, 16, Color{200, 128, 128})
	if !apply(a, CrossfadeOp(b, 0)).Equal(a) || !apply(a, CrossfadeOp(b, 1)).Equal(b) {
		t.Error("crossfade endpoints wrong")
	}
	mid := apply(a, CrossfadeOp(b, 0.5))
	if v := mid.Luma(8, 8); v < 95 || v > 105 {
		t.Errorf("mid luma = %d", v)
	}
}

func TestWipeLR(t *testing.T) {
	a := flat(16, 16, Color{0, 128, 128})
	b := flat(16, 16, Color{200, 128, 128})
	if !apply(a, WipeOp(b, 0)).Equal(a) || !apply(a, WipeOp(b, 1)).Equal(b) {
		t.Error("wipe endpoints wrong")
	}
	mid := apply(a, WipeOp(b, 0.5))
	if mid.Luma(2, 8) != 200 || mid.Luma(12, 8) != 0 {
		t.Error("wipe halves wrong")
	}
}

func TestPropertyZoomPreservesShape(t *testing.T) {
	src := noisy(48, 32, 8)
	if err := quick.Check(func(f uint8) bool {
		factor := 1 + float64(f%40)/10
		z := zoom(src, factor)
		return z.W == src.W && z.H == src.H
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCropWithinScale(t *testing.T) {
	src := noisy(64, 48, 9)
	if err := quick.Check(func(xs, ys, ws, hs uint8) bool {
		x, y := int(xs%24)&^1, int(ys%16)&^1
		w, h := 2+int(ws%16)&^1, 2+int(hs%16)&^1
		if x+w > src.W || y+h > src.H {
			return true
		}
		c := crop(src, x, y, w, h)
		// Every cropped luma pixel matches the source.
		for yy := 0; yy < h; yy++ {
			for xx := 0; xx < w; xx++ {
				if c.Luma(xx, yy) != src.Luma(x+xx, y+yy) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHStackVStack(t *testing.T) {
	a := flat(32, 32, Color{10, 128, 128})
	b := flat(32, 32, Color{200, 128, 128})
	h := like(a)
	HStackInto(h, a, b)
	if h.W != 32 || h.H != 32 {
		t.Fatalf("hstack dims %dx%d", h.W, h.H)
	}
	if h.Luma(8, 16) != 10 || h.Luma(24, 16) != 200 {
		t.Errorf("hstack halves = %d / %d", h.Luma(8, 16), h.Luma(24, 16))
	}
	v := like(a)
	VStackInto(v, a, b)
	if v.Luma(16, 8) != 10 || v.Luma(16, 24) != 200 {
		t.Errorf("vstack halves = %d / %d", v.Luma(16, 8), v.Luma(16, 24))
	}
	// Mixed sizes scale into place.
	c := flat(64, 16, Color{99, 128, 128})
	h2 := like(a)
	HStackInto(h2, a, c)
	if h2.W != 32 || h2.Luma(24, 16) != 99 {
		t.Error("hstack mixed sizes wrong")
	}
}

func TestPiP(t *testing.T) {
	base := flat(64, 64, Color{30, 128, 128})
	inset := flat(64, 64, Color{220, 128, 128})
	out := like(base)
	PiPInto(out, base, inset, 40, 40, 4)
	if out.W != 64 || out.H != 64 {
		t.Fatal("pip dims")
	}
	if out.Luma(47, 47) != 220 {
		t.Errorf("pip interior = %d", out.Luma(47, 47))
	}
	if out.Luma(8, 8) != 30 {
		t.Errorf("pip base = %d", out.Luma(8, 8))
	}
	if out.Luma(39, 39) != 255 {
		t.Errorf("pip border = %d", out.Luma(39, 39))
	}
	// scaleDiv below 2 clamps.
	out2 := like(base)
	PiPInto(out2, base, inset, 0, 0, 0)
	if out2.Luma(4, 4) != 220 {
		t.Error("pip clamp wrong")
	}
}

// BenchmarkGaussianBlur times the paper queries' blur (sigma 1.5, radius 5)
// on one frame of each dataset geometry, ToS-sim (384x172) and KABR-sim
// (384x216): the allocating wrapper, and the form the executor uses, into a
// reused destination.
func BenchmarkGaussianBlur(b *testing.B) {
	for _, sz := range [][2]int{{384, 172}, {384, 216}} {
		src := noisy(sz[0], sz[1], 1)
		b.Run(fmt.Sprintf("%dx%d/alloc", sz[0], sz[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GaussianBlur(src, 1.5)
			}
		})
		b.Run(fmt.Sprintf("%dx%d/into", sz[0], sz[1]), func(b *testing.B) {
			dst := frame.New(src.W, src.H, frame.FormatYUV420)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BlurInto(dst, src, 1.5)
			}
		})
	}
}

// TestScaleHalfMatchesBilinear: at exactly 2:1 the block-mean fast path
// writes what the general bilinear loop writes, byte for byte — on random
// planes, on the extremes that would expose a lost carry or clamp, for odd
// and even sizes down to a 2×2 source, through a destination stride.
func TestScaleHalfMatchesBilinear(t *testing.T) {
	rnd := rand.New(rand.NewSource(18))
	fills := map[string]func([]byte){
		"random": func(p []byte) { rnd.Read(p) },
		"0x00":   func(p []byte) { clear(p) },
		"0xff": func(p []byte) {
			for i := range p {
				p[i] = 0xff
			}
		},
		"0x00/0xff": func(p []byte) {
			for i := range p {
				p[i] = byte(rnd.Intn(2) * 0xff)
			}
		},
	}
	for dw := 1; dw <= 9; dw++ {
		for dh := 1; dh <= 7; dh++ {
			for name, fill := range fills {
				src := make([]byte, 2*dw*2*dh)
				fill(src)
				stride := dw + 3
				want := make([]byte, stride*dh)
				got := make([]byte, stride*dh)
				bilinearPlane(src, 2*dw, 2*dw, 2*dh, want, stride, dw, dh)
				scalePlane(src, 2*dw, 2*dw, 2*dh, got, stride, dw, dh)
				if string(got) != string(want) {
					t.Fatalf("%s %dx%d -> %dx%d: fast path\n%v\ngeneral loop\n%v", name, 2*dw, 2*dh, dw, dh, got, want)
				}
			}
		}
	}
	// Both dataset geometries, luma and chroma.
	for _, d := range [][2]int{{192, 86}, {96, 43}, {192, 108}, {96, 54}} {
		src := make([]byte, 4*d[0]*d[1])
		rnd.Read(src)
		want, got := make([]byte, d[0]*d[1]), make([]byte, d[0]*d[1])
		bilinearPlane(src, 2*d[0], 2*d[0], 2*d[1], want, d[0], d[0], d[1])
		scalePlane(src, 2*d[0], 2*d[0], 2*d[1], got, d[0], d[0], d[1])
		if string(got) != string(want) {
			t.Fatalf("%dx%d halved: fast path differs from the general loop", 2*d[0], 2*d[1])
		}
	}
}

// refScale and refBlit are how compositions were built before cells were
// scaled in place: the general bilinear loop into a temporary frame, then
// a copy. They are the oracle for TestGridMatchesReference.
func refScale(src *frame.Frame, w, h int) *frame.Frame {
	dst := frame.New(w, h, frame.FormatYUV420)
	sp, dp := src.Planes(), dst.Planes()
	bilinearPlane(sp[0], src.W, src.W, src.H, dp[0], w, w, h)
	bilinearPlane(sp[1], src.W/2, src.W/2, src.H/2, dp[1], w/2, w/2, h/2)
	bilinearPlane(sp[2], src.W/2, src.W/2, src.H/2, dp[2], w/2, w/2, h/2)
	return dst
}

func refBlit(dst, src *frame.Frame, x, y int) {
	dp, sp := dst.Planes(), src.Planes()
	for row := 0; row < src.H; row++ {
		copy(dp[0][(y+row)*dst.W+x:], sp[0][row*src.W:(row+1)*src.W])
	}
	dcw, scw := dst.W/2, src.W/2
	for row := 0; row < src.H/2; row++ {
		copy(dp[1][(y/2+row)*dcw+x/2:], sp[1][row*scw:(row+1)*scw])
		copy(dp[2][(y/2+row)*dcw+x/2:], sp[2][row*scw:(row+1)*scw])
	}
}

// TestGridMatchesReference: Grid2x2, GridN, HStack and VStack, which now
// scale each input straight into its cell, produce the frames the old
// Scale → temporary → blit composition produced — with inputs at exactly
// twice the cell (the fast path), at the cell size (row copies) and at
// other ratios (the general loop through a stride).
func TestGridMatchesReference(t *testing.T) {
	for _, d := range [][2]int{{384, 172}, {384, 216}, {160, 96}, {36, 36}, {38, 30}, {4, 4}} {
		w, h := d[0], d[1]
		qw, qh := even(w/2), even(h/2)
		a, b, c, e := noisy(w, h, 1), noisy(w, h, 2), noisy(qw, qh, 3), noisy(w+6, h+10, 4)

		want := frame.New(w, h, frame.FormatYUV420)
		refBlit(want, refScale(a, qw, qh), 0, 0)
		refBlit(want, refScale(b, qw, qh), qw, 0)
		refBlit(want, refScale(c, qw, qh), 0, qh)
		refBlit(want, refScale(e, qw, qh), qw, qh)
		if got := Grid2x2(a, b, c, e); !got.Equal(want) {
			t.Errorf("Grid2x2 at %dx%d differs from the Scale+blit composition", w, h)
		}
		dirty := noisy(w, h, 5) // stale contents must all be overwritten
		if Grid2x2Into(dirty, a, b, c, e); !dirty.Equal(want) {
			t.Errorf("Grid2x2Into at %dx%d leaves stale bytes", w, h)
		}

		frames := []*frame.Frame{a, b, c, e, a}
		cols, rows := 3, 2
		cw, ch := even(w/cols), even(h/rows)
		if cw > 0 && ch > 0 {
			want = frame.New(w, h, frame.FormatYUV420)
			want.Fill(16, 128, 128)
			for i, fr := range frames {
				refBlit(want, refScale(fr, cw, ch), i%cols*cw, i/cols*ch)
			}
			dirty = noisy(w, h, 6)
			if GridNInto(dirty, frames); !dirty.Equal(want) {
				t.Errorf("GridN(5) at %dx%d differs from the Scale+blit composition", w, h)
			}
		}

		want = frame.New(w, h, frame.FormatYUV420)
		refBlit(want, refScale(a, qw, h), 0, 0)
		refBlit(want, refScale(e, qw, h), qw, 0)
		dirty = noisy(w, h, 7)
		if HStackInto(dirty, a, e); !dirty.Equal(want) {
			t.Errorf("HStack at %dx%d differs from the Scale+blit composition", w, h)
		}
		want = frame.New(w, h, frame.FormatYUV420)
		refBlit(want, refScale(a, w, qh), 0, 0)
		refBlit(want, refScale(e, w, qh), 0, qh)
		dirty = noisy(w, h, 8)
		if VStackInto(dirty, a, e); !dirty.Equal(want) {
			t.Errorf("VStack at %dx%d differs from the Scale+blit composition", w, h)
		}
	}
}

// BenchmarkGrid2x2 times the paper queries' grid (Q3/Q8) on four ToS-sim
// frames: every cell is exactly half its input, the block-mean path.
func BenchmarkGrid2x2(b *testing.B) {
	a, c, d, e := noisy(384, 172, 1), noisy(384, 172, 2), noisy(384, 172, 3), noisy(384, 172, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Grid2x2(a, c, d, e)
	}
}
