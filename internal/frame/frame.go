// Package frame defines the V2V frame data model: typed raster buffers at
// specific pixel formats, conversions between formats, similarity metrics,
// and a machine-readable frame-ID pattern used throughout the test suite to
// verify frame-exact editing.
//
// In the paper's data model a frame is "arbitrary data of a specific type";
// this package implements the standard planar video types the execution
// engine and codec operate on.
package frame

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Format identifies a pixel format.
type Format uint8

const (
	// FormatInvalid is the zero Format and never describes a real frame.
	FormatInvalid Format = iota
	// FormatYUV420 is planar YCbCr with 2x2 chroma subsampling (yuv420p).
	// This is the codec's native format. Width and height must be even.
	FormatYUV420
	// FormatRGB24 is packed 8-bit RGB, used by drawing and overlay ops.
	FormatRGB24
	// FormatGray8 is single-plane 8-bit luma.
	FormatGray8
)

// String returns the conventional short name of the format.
func (f Format) String() string {
	switch f {
	case FormatYUV420:
		return "yuv420p"
	case FormatRGB24:
		return "rgb24"
	case FormatGray8:
		return "gray8"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(f))
	}
}

// Size returns the number of bytes a w×h frame of this format occupies.
func (f Format) Size(w, h int) int {
	switch f {
	case FormatYUV420:
		return w*h + 2*((w/2)*(h/2))
	case FormatRGB24:
		return 3 * w * h
	case FormatGray8:
		return w * h
	default:
		return 0
	}
}

// Frame is a single raster image plus its presentation metadata. Pix holds
// the planes contiguously: for YUV420 the layout is Y (w*h), then Cb, then
// Cr (each (w/2)*(h/2)); for RGB24 it is interleaved RGBRGB...; for Gray8 a
// single plane.
type Frame struct {
	W, H   int
	Format Format
	Pix    []byte

	// Pooling state (see Pool). pool is nil for frames from New/Clone;
	// such frames are garbage-collected normally and Retain/Release are
	// no-ops on them. buf keeps the full-capacity buffer so Pix can be
	// poisoned on release and reattached on reuse. refs is manipulated
	// atomically.
	pool *Pool
	buf  []byte
	refs int32
}

// Pooled reports whether the frame came from a Pool (and therefore has
// live refcount semantics).
func (fr *Frame) Pooled() bool { return fr != nil && fr.pool != nil }

// Retain adds a reference to a pooled frame; each holder must eventually
// call Release. No-op on unpooled frames. Returns fr for chaining.
//
//v2v:hotpath
func (fr *Frame) Retain() *Frame {
	if fr != nil && fr.pool != nil {
		atomic.AddInt32(&fr.refs, 1)
	}
	return fr
}

// Exclusive reports whether fr is pooled and its one reference is the
// caller's: no other holder can read it while the caller writes it.
// Unpooled frames are never exclusive, as their holders are not counted.
func (fr *Frame) Exclusive() bool {
	return fr != nil && fr.pool != nil && atomic.LoadInt32(&fr.refs) == 1
}

// Release drops one reference; the final release returns the buffer to its
// pool and poisons Pix. Releasing more times than retained panics. No-op
// on nil or unpooled frames, so callers can release unconditionally.
//
//v2v:hotpath
func (fr *Frame) Release() {
	if fr == nil || fr.pool == nil {
		return
	}
	n := atomic.AddInt32(&fr.refs, -1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("frame: Release of already-released frame (double release)") //v2v:nolint(hotpath) cold panic path
	}
	fr.pool.put(fr)
}

// New allocates a zeroed frame. For YUV420 a zero buffer is green-ish;
// callers that want black should use Fill.
func New(w, h int, f Format) *Frame {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("frame: invalid dimensions %dx%d", w, h))
	}
	if f == FormatYUV420 && (w%2 != 0 || h%2 != 0) {
		panic(fmt.Sprintf("frame: yuv420 dimensions must be even, got %dx%d", w, h))
	}
	return &Frame{W: w, H: h, Format: f, Pix: make([]byte, f.Size(w, h))}
}

// Clone returns a deep copy of the frame.
func (fr *Frame) Clone() *Frame {
	out := &Frame{W: fr.W, H: fr.H, Format: fr.Format, Pix: make([]byte, len(fr.Pix))}
	copy(out.Pix, fr.Pix)
	return out
}

// SameShape reports whether two frames have identical dimensions and format.
func (fr *Frame) SameShape(o *Frame) bool {
	return fr.W == o.W && fr.H == o.H && fr.Format == o.Format
}

// Planes returns the per-plane slices of the frame. YUV420 yields [Y,Cb,Cr];
// RGB24 and Gray8 yield a single plane.
func (fr *Frame) Planes() [][]byte {
	switch fr.Format {
	case FormatYUV420:
		ys := fr.W * fr.H
		cs := (fr.W / 2) * (fr.H / 2)
		return [][]byte{fr.Pix[:ys], fr.Pix[ys : ys+cs], fr.Pix[ys+cs : ys+2*cs]}
	default:
		return [][]byte{fr.Pix}
	}
}

// Fill sets every pixel to the given YUV (for YUV420/Gray8) or to the RGB
// conversion of that YUV triple (for RGB24).
func (fr *Frame) Fill(y, cb, cr byte) {
	switch fr.Format {
	case FormatYUV420:
		p := fr.Planes()
		for i := range p[0] {
			p[0][i] = y
		}
		for i := range p[1] {
			p[1][i] = cb
		}
		for i := range p[2] {
			p[2][i] = cr
		}
	case FormatGray8:
		for i := range fr.Pix {
			fr.Pix[i] = y
		}
	case FormatRGB24:
		r, g, b := YUVToRGB(y, cb, cr)
		for i := 0; i < len(fr.Pix); i += 3 {
			fr.Pix[i], fr.Pix[i+1], fr.Pix[i+2] = r, g, b
		}
	}
}

// Luma returns the luma byte at (x, y) for any format.
func (fr *Frame) Luma(x, y int) byte {
	switch fr.Format {
	case FormatYUV420, FormatGray8:
		return fr.Pix[y*fr.W+x]
	case FormatRGB24:
		i := (y*fr.W + x) * 3
		yy, _, _ := RGBToYUV(fr.Pix[i], fr.Pix[i+1], fr.Pix[i+2])
		return yy
	}
	return 0
}

// SetLuma writes the luma byte at (x, y). For RGB24 it writes a gray pixel.
func (fr *Frame) SetLuma(x, y int, v byte) {
	switch fr.Format {
	case FormatYUV420, FormatGray8:
		fr.Pix[y*fr.W+x] = v
	case FormatRGB24:
		i := (y*fr.W + x) * 3
		fr.Pix[i], fr.Pix[i+1], fr.Pix[i+2] = v, v, v
	}
}

// YUVToRGB converts one BT.601 full-range YCbCr triple to RGB.
func YUVToRGB(y, cb, cr byte) (r, g, b byte) {
	yf := float64(y)
	cbf := float64(cb) - 128
	crf := float64(cr) - 128
	return clamp8(yf + 1.402*crf), clamp8(yf - 0.344136*cbf - 0.714136*crf), clamp8(yf + 1.772*cbf)
}

// RGBToYUV converts one RGB triple to BT.601 full-range YCbCr.
func RGBToYUV(r, g, b byte) (y, cb, cr byte) {
	rf, gf, bf := float64(r), float64(g), float64(b)
	return clamp8(0.299*rf + 0.587*gf + 0.114*bf),
		clamp8(128 - 0.168736*rf - 0.331264*gf + 0.5*bf),
		clamp8(128 + 0.5*rf - 0.418688*gf - 0.081312*bf)
}

func clamp8(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return byte(v + 0.5)
}

// Convert returns the frame converted to the target format. Converting to
// the same format returns a clone. YUV420 conversions require even
// dimensions (guaranteed for frames produced by New).
func (fr *Frame) Convert(to Format) *Frame {
	if fr.Format == to {
		return fr.Clone()
	}
	out := New(fr.W, fr.H, to)
	switch {
	case fr.Format == FormatYUV420 && to == FormatRGB24:
		p := fr.Planes()
		cw := fr.W / 2
		for y := 0; y < fr.H; y++ {
			for x := 0; x < fr.W; x++ {
				ci := (y/2)*cw + x/2
				r, g, b := YUVToRGB(p[0][y*fr.W+x], p[1][ci], p[2][ci])
				i := (y*fr.W + x) * 3
				out.Pix[i], out.Pix[i+1], out.Pix[i+2] = r, g, b
			}
		}
	case fr.Format == FormatRGB24 && to == FormatYUV420:
		p := out.Planes()
		cw := fr.W / 2
		// Luma per pixel; chroma averaged over each 2x2 block.
		for y := 0; y < fr.H; y++ {
			for x := 0; x < fr.W; x++ {
				i := (y*fr.W + x) * 3
				yy, _, _ := RGBToYUV(fr.Pix[i], fr.Pix[i+1], fr.Pix[i+2])
				p[0][y*fr.W+x] = yy
			}
		}
		for by := 0; by < fr.H/2; by++ {
			for bx := 0; bx < cw; bx++ {
				var sumCb, sumCr int
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						i := ((by*2+dy)*fr.W + bx*2 + dx) * 3
						_, cb, cr := RGBToYUV(fr.Pix[i], fr.Pix[i+1], fr.Pix[i+2])
						sumCb += int(cb)
						sumCr += int(cr)
					}
				}
				p[1][by*cw+bx] = byte(sumCb / 4)
				p[2][by*cw+bx] = byte(sumCr / 4)
			}
		}
	case fr.Format == FormatYUV420 && to == FormatGray8:
		copy(out.Pix, fr.Planes()[0])
	case fr.Format == FormatGray8 && to == FormatYUV420:
		p := out.Planes()
		copy(p[0], fr.Pix)
		for i := range p[1] {
			p[1][i] = 128
			p[2][i] = 128
		}
	case fr.Format == FormatGray8 && to == FormatRGB24:
		for i, v := range fr.Pix {
			out.Pix[i*3], out.Pix[i*3+1], out.Pix[i*3+2] = v, v, v
		}
	case fr.Format == FormatRGB24 && to == FormatGray8:
		for i := 0; i < fr.W*fr.H; i++ {
			y, _, _ := RGBToYUV(fr.Pix[i*3], fr.Pix[i*3+1], fr.Pix[i*3+2])
			out.Pix[i] = y
		}
	default:
		panic(fmt.Sprintf("frame: unsupported conversion %v -> %v", fr.Format, to))
	}
	return out
}

// Equal reports whether two frames are byte-identical.
func (fr *Frame) Equal(o *Frame) bool {
	if !fr.SameShape(o) {
		return false
	}
	for i := range fr.Pix {
		if fr.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// PSNR returns the peak signal-to-noise ratio between two same-shape
// frames, in dB. Identical frames return +Inf.
func PSNR(a, b *Frame) float64 {
	if !a.SameShape(b) {
		return 0
	}
	var sum float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		sum += d * d
	}
	if sum == 0 {
		return math.Inf(1)
	}
	mse := sum / float64(len(a.Pix))
	return 10 * math.Log10(255*255/mse)
}
