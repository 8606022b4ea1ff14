package raster

import (
	"fmt"

	"v2v/internal/frame"
)

// This file implements the point operations — grade, crossfade, wipe and
// overlay — in their one form: a PointOp applied by ApplyFused. A single
// op is a chain of one; a longer chain costs ONE pass instead of one per
// op: each row is loaded once, every op is applied while the row is
// L1-resident, and the destination buffer is caller-provided (poolable).
//
// Correctness: every point op writes each output pixel as a function of
// the same-position input pixel (plus constant secondary frames), so
// applying ops row-by-row in order is byte-identical to applying them
// frame-by-frame in order, which the tests check against frame-at-a-time
// reference implementations.

type opKind uint8

const (
	opGrade opKind = iota
	opCrossfade
	opWipe
	opOverlay
)

const (
	modeBlend    uint8 = iota // apply the op's arithmetic
	modeIdentity              // op is a no-op at these parameters (t<=0)
	modeCopy                  // op replaces dst with its other frame (t>=1)
)

// PointOp is one per-pixel operation, prepared for repeated application.
// Construct with GradeOp, CrossfadeOp, WipeOp or OverlayOp; apply chains
// with ApplyFused. Constructing one performs no heap allocation. A PointOp
// is immutable after construction and safe for concurrent use as long as
// its secondary frame (crossfade/wipe other, overlay image) is not mutated
// or released.
type PointOp struct {
	kind opKind
	mode uint8

	// Grade: per-plane lookup tables, held by value so that building the
	// op each frame allocates nothing.
	lumaLUT, chromaLUT [256]byte

	// Crossfade/Wipe second frame or Overlay image (always YUV420), with
	// its planes pre-split so row application allocates nothing.
	other       *frame.Frame
	otherPlanes [3][]byte

	alpha int     // crossfade blend weight or overlay alpha, 0..255
	t     float64 // wipe fraction (cut depends on dst width)
	x, y  int     // overlay offset
}

// GradeOp adjusts brightness (additive, -255..255) and contrast
// (multiplier about the mid-point, e.g. 1.2) on the luma plane and
// saturation (multiplier about 128) on chroma.
func GradeOp(brightness int, contrast, saturation float64) PointOp {
	op := PointOp{kind: opGrade}
	for i := 0; i < 256; i++ {
		op.lumaLUT[i] = clampF((float64(i)-128)*contrast + 128 + float64(brightness))
		op.chromaLUT[i] = clampF((float64(i)-128)*saturation + 128)
	}
	return op
}

// CrossfadeOp blends the frame it applies to into b with mix t in [0,1]:
// t <= 0 leaves it, t >= 1 replaces it with b. b must have its shape.
func CrossfadeOp(b *frame.Frame, t float64) PointOp {
	op := PointOp{kind: opCrossfade, other: b, otherPlanes: planes3(b)}
	switch {
	case t <= 0:
		op.mode = modeIdentity
	case t >= 1:
		op.mode = modeCopy
	default:
		op.alpha = int(t*255 + 0.5)
	}
	return op
}

// WipeOp reveals b over the frame it applies to, left to right: columns
// left of t*W come from b. b must have its shape.
func WipeOp(b *frame.Frame, t float64) PointOp {
	op := PointOp{kind: opWipe, other: b, otherPlanes: planes3(b), t: t}
	switch {
	case t <= 0:
		op.mode = modeIdentity
	case t >= 1:
		op.mode = modeCopy
	}
	return op
}

// OverlayOp alpha-blends image over the frame it applies to, with its
// top-left corner at (x, y). alpha is 0..255 applied uniformly (the image
// itself is opaque); out-of-bounds parts are clipped. Non-YUV420 images are
// converted once here, not per frame.
func OverlayOp(image *frame.Frame, x, y, alpha int) PointOp {
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
	return PointOp{kind: opOverlay, other: img, otherPlanes: planes3(img), alpha: alpha, x: x, y: y}
}

func planes3(fr *frame.Frame) [3][]byte {
	p := fr.Planes()
	return [3][]byte{p[0], p[1], p[2]}
}

// ApplyFused copies src into dst and applies ops in order in a single
// row-wise pass over the planes. dst and src must be same-shape YUV420;
// dst == src applies the chain in place. Every byte of dst is written, so
// a pooled dst with stale contents is safe. A crossfade or wipe whose
// second frame is shaped unlike src panics. ApplyFused performs no heap
// allocation.
//
//v2v:hotpath
func ApplyFused(dst, src *frame.Frame, ops []PointOp) {
	mustYUV(src, "ApplyFused") //v2v:nolint(hotpath) inlined shape-check panic path; never taken on the warm loop
	if dst != src {
		mustYUV(dst, "ApplyFused") //v2v:nolint(hotpath) inlined shape-check panic path; never taken on the warm loop
		if !dst.SameShape(src) {
			panic(fmt.Sprintf("raster: ApplyFused dst %dx%d does not match src %dx%d", dst.W, dst.H, src.W, src.H)) //v2v:nolint(hotpath) cold panic path; allocates only when the caller broke the shape contract
		}
	}
	for i := range ops {
		switch ops[i].kind {
		case opCrossfade:
			if !src.SameShape(ops[i].other) {
				panic("raster: Crossfade frames must be same shape") //v2v:nolint(hotpath) cold panic path
			}
		case opWipe:
			if !src.SameShape(ops[i].other) {
				panic("raster: WipeLR frames must be same shape") //v2v:nolint(hotpath) cold panic path
			}
		}
	}
	// Adjacent grades compose exactly — grade is a pure per-byte LUT, so a
	// run of them is one lookup through the composed table
	// (last∘…∘first), byte-identical to applying them in sequence. The
	// rewrite is inlined here, into stack scratch, so it allocates
	// nothing; chains longer than the scratch (rare — real queries stay
	// shallow) run op by op.
	var scratch [gradeComposeMax]PointOp
	if n := len(ops); n <= gradeComposeMax {
		used := 0 // indexed stores, not append: append's realloc path would move scratch to the heap
		for i := 0; i < n; used++ {
			scratch[used] = ops[i]
			g := &scratch[used]
			for i++; g.kind == opGrade && i < n && ops[i].kind == opGrade; i++ {
				for j := 0; j < 256; j++ {
					g.lumaLUT[j] = ops[i].lumaLUT[g.lumaLUT[j]]
					g.chromaLUT[j] = ops[i].chromaLUT[g.chromaLUT[j]]
				}
			}
		}
		ops = scratch[:used]
	}
	dp := planes3(dst)
	sp := dp
	if dst != src {
		sp = planes3(src)
	}
	for pi := 0; pi < 3; pi++ {
		w, h := dst.W, dst.H
		if pi > 0 {
			w, h = w/2, h/2
		}
		for row := 0; row < h; row++ {
			drow := dp[pi][row*w : (row+1)*w]
			if dst != src {
				copy(drow, sp[pi][row*w:(row+1)*w])
			}
			for i := range ops {
				ops[i].applyRow(dst, pi, row, w, drow)
			}
		}
	}
}

// gradeComposeMax bounds ApplyFused's grade-composition stack scratch.
const gradeComposeMax = 8

// applyRow applies the op to one plane row already resident in drow.
//
//v2v:hotpath
func (op *PointOp) applyRow(dst *frame.Frame, plane, row, w int, drow []byte) {
	switch op.kind {
	case opGrade:
		lut := &op.lumaLUT
		if plane > 0 {
			lut = &op.chromaLUT
		}
		for i, v := range drow {
			drow[i] = lut[v]
		}

	case opCrossfade:
		switch op.mode {
		case modeIdentity:
			return
		case modeCopy:
			copy(drow, op.otherPlanes[plane][row*w:(row+1)*w])
			return
		}
		orow := op.otherPlanes[plane][row*w : (row+1)*w]
		a := op.alpha
		for i, v := range drow {
			drow[i] = byte((int(orow[i])*a + int(v)*(255-a) + 127) / 255)
		}

	case opWipe:
		switch op.mode {
		case modeIdentity:
			return
		case modeCopy:
			copy(drow, op.otherPlanes[plane][row*w:(row+1)*w])
			return
		}
		cut := even(int(op.t * float64(dst.W)))
		if cut == 0 {
			return
		}
		if plane > 0 {
			cut /= 2
		}
		copy(drow[:cut], op.otherPlanes[plane][row*w:row*w+cut])

	case opOverlay:
		img, a := op.other, op.alpha
		if plane == 0 {
			irow := row - op.y
			if irow < 0 || irow >= img.H {
				return
			}
			ip := op.otherPlanes[0][irow*img.W : (irow+1)*img.W]
			for col := 0; col < img.W; col++ {
				dx := op.x + col
				if dx < 0 || dx >= w {
					continue
				}
				drow[dx] = byte((int(ip[col])*a + int(drow[dx])*(255-a) + 127) / 255)
			}
			return
		}
		irow := row - op.y/2
		icw := img.W / 2
		if irow < 0 || irow >= img.H/2 {
			return
		}
		ip := op.otherPlanes[plane][irow*icw : (irow+1)*icw]
		for col := 0; col < icw; col++ {
			dx := op.x/2 + col
			if dx < 0 || dx >= w {
				continue
			}
			drow[dx] = byte((int(ip[col])*a + int(drow[dx])*(255-a) + 127) / 255)
		}
	}
}
