package raster

import "v2v/internal/frame"

// Grid2x2 composes four frames into quadrants of a single output frame of
// the same size as the first input. Inputs may have different sizes; each
// is scaled to the quadrant size. This implements the paper's
// Grid(Frame, Frame, Frame, Frame) transform (benchmark Q3/Q8).
func Grid2x2(tl, tr, bl, br *frame.Frame) *frame.Frame {
	out := frame.New(tl.W, tl.H, frame.FormatYUV420)
	qw, qh := even(tl.W/2), even(tl.H/2)
	scaleCell(out, tl, 0, 0, qw, qh)
	scaleCell(out, tr, qw, 0, qw, qh)
	scaleCell(out, bl, 0, qh, qw, qh)
	scaleCell(out, br, qw, qh, qw, qh)
	return out
}

// GridN composes n frames into a near-square grid (rows×cols) sized like
// the first input. Empty cells are black.
func GridN(frames []*frame.Frame) *frame.Frame {
	if len(frames) == 0 {
		panic("raster: GridN needs at least one frame")
	}
	cols := 1
	for cols*cols < len(frames) {
		cols++
	}
	rows := (len(frames) + cols - 1) / cols
	base := frames[0]
	out := frame.New(base.W, base.H, frame.FormatYUV420)
	out.Fill(16, 128, 128)
	cw, ch := even(base.W/cols), even(base.H/rows)
	for i, fr := range frames {
		r, c := i/cols, i%cols
		scaleCell(out, fr, c*cw, r*ch, cw, ch)
	}
	return out
}

// HStack places a and b side by side, each scaled to half the output
// width; the output has a's dimensions.
func HStack(a, b *frame.Frame) *frame.Frame {
	out := frame.New(a.W, a.H, frame.FormatYUV420)
	hw := even(a.W / 2)
	scaleCell(out, a, 0, 0, hw, a.H)
	scaleCell(out, b, hw, 0, hw, a.H)
	return out
}

// VStack places a above b, each scaled to half the output height; the
// output has a's dimensions.
func VStack(a, b *frame.Frame) *frame.Frame {
	out := frame.New(a.W, a.H, frame.FormatYUV420)
	hh := even(a.H / 2)
	scaleCell(out, a, 0, 0, a.W, hh)
	scaleCell(out, b, 0, hh, a.W, hh)
	return out
}

// PiP composes inset as a picture-in-picture over base: inset is scaled to
// 1/scaleDiv of base's dimensions and blended opaquely at (x, y) with a
// 2-pixel border.
func PiP(base, inset *frame.Frame, x, y, scaleDiv int) *frame.Frame {
	if scaleDiv < 2 {
		scaleDiv = 2
	}
	w := even(base.W / scaleDiv)
	h := even(base.H / scaleDiv)
	if w < 2 {
		w = 2
	}
	if h < 2 {
		h = 2
	}
	small := Scale(inset, w, h)
	out := base.Clone()
	DrawRect(out, Rect{X: x - 2, Y: y - 2, W: w + 4, H: h + 4}, 2, White)
	return Overlay(out, small, x, y, 255)
}

// Overlay alpha-blends image over base with its top-left corner at (x, y).
// alpha is 0..255 applied uniformly (the overlay image itself is opaque).
// Out-of-bounds parts are clipped. Implements Overlay(frame, image).
func Overlay(base, image *frame.Frame, x, y int, alpha int) *frame.Frame {
	mustYUV(base, "Overlay")
	img := image
	if img.Format != frame.FormatYUV420 {
		img = image.Convert(frame.FormatYUV420)
	}
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 255 {
		alpha = 255
	}
	dst := base.Clone()
	dp, ip := dst.Planes(), img.Planes()
	a := alpha
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
			di := dy*dst.W + dx
			si := row*img.W + col
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
			di := dy*dcw + dx
			si := row*icw + col
			dp[1][di] = byte((int(ip[1][si])*a + int(dp[1][di])*(255-a) + 127) / 255)
			dp[2][di] = byte((int(ip[2][si])*a + int(dp[2][di])*(255-a) + 127) / 255)
		}
	}
	return dst
}

// Crossfade blends a into b with mix t in [0,1]; t=0 returns a, t=1
// returns b. Frames must be same-shape. Used for animated transitions.
func Crossfade(a, b *frame.Frame, t float64) *frame.Frame {
	if !a.SameShape(b) {
		panic("raster: Crossfade frames must be same shape")
	}
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

// WipeLR reveals b over a left-to-right: columns left of t*W come from b.
func WipeLR(a, b *frame.Frame, t float64) *frame.Frame {
	if !a.SameShape(b) {
		panic("raster: WipeLR frames must be same shape")
	}
	if t <= 0 {
		return a.Clone()
	}
	if t >= 1 {
		return b.Clone()
	}
	cut := even(int(t * float64(a.W)))
	out := a.Clone()
	if cut == 0 {
		return out
	}
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
