package raster

import "v2v/internal/frame"

// Grid2x2 is the allocating form of Grid2x2Into, sized like tl.
func Grid2x2(tl, tr, bl, br *frame.Frame) *frame.Frame {
	out := frame.New(tl.W, tl.H, frame.FormatYUV420)
	Grid2x2Into(out, tl, tr, bl, br)
	return out
}

// Grid2x2Into composes four frames into the quadrants of dst. Inputs may
// have different sizes; each is scaled to the quadrant size. This
// implements the paper's Grid(Frame, Frame, Frame, Frame) transform
// (benchmark Q3/Q8).
//
//v2v:hotpath
func Grid2x2Into(dst, tl, tr, bl, br *frame.Frame) {
	qw, qh := even(dst.W/2), even(dst.H/2)
	if 2*qw < dst.W || 2*qh < dst.H {
		clear(dst.Pix) // the margin no quadrant covers stays zero
	}
	scaleCell(dst, tl, 0, 0, qw, qh)
	scaleCell(dst, tr, qw, 0, qw, qh)
	scaleCell(dst, bl, 0, qh, qw, qh)
	scaleCell(dst, br, qw, qh, qw, qh)
}

// GridNInto composes frames into a near-square grid (rows×cols) filling
// dst. Empty cells are black.
func GridNInto(dst *frame.Frame, frames []*frame.Frame) {
	if len(frames) == 0 {
		panic("raster: GridN needs at least one frame")
	}
	cols := 1
	for cols*cols < len(frames) {
		cols++
	}
	rows := (len(frames) + cols - 1) / cols
	dst.Fill(16, 128, 128)
	cw, ch := even(dst.W/cols), even(dst.H/rows)
	for i, fr := range frames {
		r, c := i/cols, i%cols
		scaleCell(dst, fr, c*cw, r*ch, cw, ch)
	}
}

// HStackInto places a and b side by side in dst, each scaled to half its
// width.
func HStackInto(dst, a, b *frame.Frame) {
	hw := even(dst.W / 2)
	if 2*hw < dst.W {
		clear(dst.Pix)
	}
	scaleCell(dst, a, 0, 0, hw, dst.H)
	scaleCell(dst, b, hw, 0, hw, dst.H)
}

// VStackInto places a above b in dst, each scaled to half its height.
func VStackInto(dst, a, b *frame.Frame) {
	hh := even(dst.H / 2)
	if 2*hh < dst.H {
		clear(dst.Pix)
	}
	scaleCell(dst, a, 0, 0, dst.W, hh)
	scaleCell(dst, b, 0, hh, dst.W, hh)
}

// PiPInto composes inset as a picture-in-picture over base into dst: inset
// is scaled to 1/scaleDiv of base's dimensions and placed opaquely at
// (x, y) with a 2-pixel border. The scaled inset is a temporary from the
// shared frame pool.
func PiPInto(dst, base, inset *frame.Frame, x, y, scaleDiv int) {
	if scaleDiv < 2 {
		scaleDiv = 2
	}
	w := max(even(base.W/scaleDiv), 2)
	h := max(even(base.H/scaleDiv), 2)
	small := frame.DefaultPool().Get(w, h, frame.FormatYUV420)
	defer small.Release()
	ScaleInto(small, inset)
	copyInto(dst, base)
	DrawRect(dst, Rect{X: x - 2, Y: y - 2, W: w + 4, H: h + 4}, 2, White)
	ops := [1]PointOp{OverlayOp(small, x, y, 255)}
	ApplyFused(dst, dst, ops[:])
}

// copyInto copies src into dst, a YUV420 frame of the same shape.
func copyInto(dst, src *frame.Frame) {
	mustMatch(dst, src, "copy")
	copy(dst.Pix, src.Pix)
}
