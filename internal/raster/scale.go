// Package raster implements the from-scratch image operations that back
// V2V's Filter transforms: cropping, scaling, blurring and convolution,
// drawing (boxes, text), alpha overlays, grid composition, color grading,
// and animated transitions.
//
// All operations are deterministic pure functions of their inputs, so every
// engine (optimized, unoptimized, naive baseline) produces bit-identical
// pixels for the same logical edit — the property the equivalence tests
// rely on. Operations read and write YUV420 frames, the execution engine's
// native interchange format, unless documented otherwise. Each transform
// has one body, which writes every byte of a destination its caller
// supplies (a pooled frame in the executor); the few allocating forms are
// thin wrappers over it.
package raster

import (
	"encoding/binary"
	"fmt"

	"v2v/internal/frame"
)

// Scale is the allocating form of ScaleInto: it resizes src to w×h, which
// must be positive and even.
//
// When the target equals the source dimensions, Scale returns src itself
// (NOT a copy): callers must treat the result as aliasing src and clone
// before mutating.
func Scale(src *frame.Frame, w, h int) *frame.Frame {
	if w == src.W && h == src.H && src.Format == frame.FormatYUV420 {
		return src
	}
	dst := frame.New(w, h, frame.FormatYUV420)
	ScaleInto(dst, src)
	return dst
}

// ScaleInto resizes src to dst's dimensions using bilinear interpolation in
// fixed-point arithmetic (16.16), per plane. Every byte of dst is written.
// dst must not alias src.
//
//v2v:hotpath
func ScaleInto(dst, src *frame.Frame) {
	scaleCell(dst, src, 0, 0, dst.W, dst.H)
}

// scaleCell scales src to w×h straight into the rectangle of dst whose
// top-left corner is (x, y) — ScaleInto with a destination stride, so a
// composition needs neither a temporary frame per input nor a copy. x and
// y must be even and the rectangle must lie inside dst.
//
//v2v:hotpath
func scaleCell(dst, src *frame.Frame, x, y, w, h int) {
	if src.Format != frame.FormatYUV420 || dst.Format != frame.FormatYUV420 {
		panic(fmt.Sprintf("raster: Scale wants yuv420, got %v -> %v", src.Format, dst.Format)) //v2v:nolint(hotpath) cold panic path; allocates only on a format contract violation
	}
	if w <= 0 || h <= 0 || w%2 != 0 || h%2 != 0 {
		panic(fmt.Sprintf("raster: bad scale target %dx%d", w, h)) //v2v:nolint(hotpath) cold panic path; allocates only on a size contract violation
	}
	sp, dp := planes3(src), planes3(dst)
	scalePlane(sp[0], src.W, src.W, src.H, dp[0][y*dst.W+x:], dst.W, w, h)
	cw, scw := dst.W/2, src.W/2
	scalePlane(sp[1], scw, scw, src.H/2, dp[1][y/2*cw+x/2:], cw, w/2, h/2)
	scalePlane(sp[2], scw, scw, src.H/2, dp[2][y/2*cw+x/2:], cw, w/2, h/2)
}

// scalePlane resizes the sw×sh plane whose row sy is src[sy*sstride:] to
// dw×dh, writing row dy of the result at dst[dy*stride:].
//
//v2v:hotpath
func scalePlane(src []byte, sstride, sw, sh int, dst []byte, stride, dw, dh int) {
	switch {
	case sw == dw && sh == dh:
		for y := 0; y < dh; y++ {
			copy(dst[y*stride:y*stride+dw], src[y*sstride:])
		}
	case sw == 2*dw && sh == 2*dh:
		halvePlane(src, sstride, dst, stride, dw, dh)
	default:
		bilinearPlane(src, sstride, sw, sh, dst, stride, dw, dh)
	}
}

// halvePlane is bilinearPlane at exactly 2:1 both ways, where it reduces
// to the rounded mean of each 2×2 block, for every input. With
// xRatio = 2<<16,
//
//	sxf = dx*(2<<16) + (1<<16) - (1<<15) = (2dx)<<16 + 0x8000,
//
// so sx = 2dx and fx = 0x8000 = fpOne/2; sxf is never negative and
// sx+1 = 2dx+1 <= 2dw-1 = sw-1, so neither clamp fires. Rows likewise:
// sy = 2dy, fy = 0x8000. Then top = (p00+p01)<<15, bot = (p10+p11)<<15 and
//
//	v = ((top+bot)<<15 + 1<<31) >> 32
//	  = ((p00+p01+p10+p11)<<30 + 2<<30) >> 32
//	  = (p00+p01+p10+p11+2) >> 2,
//
// at most (4*255+2)>>2 = 255, so the final clamp is idle too. Two int64
// multiplies and four clamps per pixel become three adds and a shift —
// done on four blocks at a time in the 16-bit lanes of a uint64: a block
// sum is below 1<<10, so a lane never carries, and after the shift each
// lane's low byte is its block's result (TestScaleHalfMatchesBilinear).
//
//v2v:hotpath
func halvePlane(src []byte, sstride int, dst []byte, stride, dw, dh int) {
	const (
		lo8   = 0x00ff00ff00ff00ff // the even bytes, one per 16-bit lane
		round = 0x0002000200020002
	)
	for dy := 0; dy < dh; dy++ {
		r0 := src[2*dy*sstride : 2*dy*sstride+2*dw]
		r1 := src[(2*dy+1)*sstride : (2*dy+1)*sstride+2*dw]
		out := dst[dy*stride : dy*stride+dw]
		dx := 0
		for ; dx+4 <= dw; dx += 4 {
			a := binary.LittleEndian.Uint64(r0[2*dx : 2*dx+8])
			b := binary.LittleEndian.Uint64(r1[2*dx : 2*dx+8])
			s := ((a & lo8) + (a >> 8 & lo8) + (b & lo8) + (b >> 8 & lo8) + round) >> 2
			out[dx], out[dx+1], out[dx+2], out[dx+3] = byte(s), byte(s>>16), byte(s>>32), byte(s>>48)
		}
		for ; dx < dw; dx++ {
			out[dx] = byte((int(r0[2*dx]) + int(r0[2*dx+1]) + int(r1[2*dx]) + int(r1[2*dx+1]) + 2) >> 2)
		}
	}
}

// bilinearPlane is the general resampler: 16.16 fixed-point bilinear
// interpolation with edge-to-edge mapping and half-pixel centers.
//
//v2v:hotpath
func bilinearPlane(src []byte, sstride, sw, sh int, dst []byte, stride, dw, dh int) {
	const fpShift = 16
	const fpOne = 1 << fpShift
	xRatio := (int64(sw) << fpShift) / int64(dw)
	yRatio := (int64(sh) << fpShift) / int64(dh)
	for dy := 0; dy < dh; dy++ {
		syf := (int64(dy)*yRatio + yRatio/2) - fpOne/2
		if syf < 0 {
			syf = 0
		}
		sy := int(syf >> fpShift)
		fy := syf & (fpOne - 1)
		sy1 := sy + 1
		if sy1 >= sh {
			sy1 = sh - 1
		}
		for dx := 0; dx < dw; dx++ {
			sxf := (int64(dx)*xRatio + xRatio/2) - fpOne/2
			if sxf < 0 {
				sxf = 0
			}
			sx := int(sxf >> fpShift)
			fx := sxf & (fpOne - 1)
			sx1 := sx + 1
			if sx1 >= sw {
				sx1 = sw - 1
			}
			p00 := int64(src[sy*sstride+sx])
			p01 := int64(src[sy*sstride+sx1])
			p10 := int64(src[sy1*sstride+sx])
			p11 := int64(src[sy1*sstride+sx1])
			top := p00*(fpOne-fx) + p01*fx
			bot := p10*(fpOne-fx) + p11*fx
			v := (top*(fpOne-fy) + bot*fy + (1 << (2*fpShift - 1))) >> (2 * fpShift)
			if v > 255 {
				v = 255
			}
			dst[dy*stride+dx] = byte(v)
		}
	}
}

// CropInto copies the dst-sized rectangle of src whose top-left corner is
// (x, y) into dst. x, y and dst's dimensions must be even (YUV420 chroma
// alignment) and the rectangle must lie inside src.
func CropInto(dst, src *frame.Frame, x, y int) {
	mustYUV(src, "Crop")
	w, h := dst.W, dst.H
	if x%2 != 0 || y%2 != 0 || w%2 != 0 || h%2 != 0 {
		panic(fmt.Sprintf("raster: crop rect %d,%d %dx%d must be even-aligned", x, y, w, h))
	}
	if x < 0 || y < 0 || x+w > src.W || y+h > src.H {
		panic(fmt.Sprintf("raster: crop rect %d,%d %dx%d outside %dx%d", x, y, w, h, src.W, src.H))
	}
	sp, dp := planes3(src), planes3(dst)
	copyRect(sp[0], src.W, x, y, dp[0], w, h)
	copyRect(sp[1], src.W/2, x/2, y/2, dp[1], w/2, h/2)
	copyRect(sp[2], src.W/2, x/2, y/2, dp[2], w/2, h/2)
}

func copyRect(src []byte, sw, x, y int, dst []byte, dw, dh int) {
	for row := 0; row < dh; row++ {
		copy(dst[row*dw:(row+1)*dw], src[(y+row)*sw+x:(y+row)*sw+x+dw])
	}
}

// ZoomInto scales the centered region of src covering 1/factor of each
// dimension up to fill dst, which is shaped like src — the paper's
// Zoom(frame, percent) transform. factor must be >= 1; factor 1 copies.
// The region is read in place, through src's stride.
func ZoomInto(dst, src *frame.Frame, factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("raster: zoom factor %v < 1", factor))
	}
	mustMatch(dst, src, "Zoom")
	cw := max(even(int(float64(src.W)/factor)), 2)
	ch := max(even(int(float64(src.H)/factor)), 2)
	x, y := even((src.W-cw)/2), even((src.H-ch)/2)
	sp, dp := planes3(src), planes3(dst)
	scalePlane(sp[0][y*src.W+x:], src.W, cw, ch, dp[0], dst.W, dst.W, dst.H)
	c := src.W / 2
	scalePlane(sp[1][y/2*c+x/2:], c, cw/2, ch/2, dp[1], c, c, dst.H/2)
	scalePlane(sp[2][y/2*c+x/2:], c, cw/2, ch/2, dp[2], c, c, dst.H/2)
}

func even(v int) int { return v &^ 1 }
