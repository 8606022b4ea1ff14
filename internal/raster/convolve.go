package raster

import (
	"fmt"
	"math"
	"math/bits"

	"v2v/internal/frame"
)

// GaussianBlur applies a separable Gaussian blur with the given sigma to
// every plane. This is the pixel-wise filter used by benchmark queries
// Q4/Q9. It is the allocating form of BlurInto: a fresh destination, kernel
// and scratch per call.
//
// sigma <= 0 is the identity and returns src itself (NOT a copy), under the
// same aliasing contract as Scale's no-op: callers must clone before
// mutating.
func GaussianBlur(src *frame.Frame, sigma float64) *frame.Frame {
	mustYUV(src, "GaussianBlur")
	if sigma <= 0 {
		return src
	}
	dst := frame.New(src.W, src.H, frame.FormatYUV420)
	var scratch BlurScratch
	BlurInto(dst, src, GaussianKernel(sigma), &scratch)
	return dst
}

// kShift is the fixed-point scale of the blur kernel weights.
const kShift = 12

// BlurKernel is a normalized integer Gaussian kernel in folded form:
// taps[0] is the center weight and taps[k] the weight at distance k on
// either side. The weights are non-negative and the unfolded kernel sums to
// exactly 1<<kShift, so a weighted sum of bytes never exceeds 255<<kShift.
// Construct with GaussianKernel; a BlurKernel is immutable and safe for
// concurrent use.
type BlurKernel struct {
	taps []uint64
}

// GaussianKernel builds the kernel for sigma (> 0), with radius
// ceil(3*sigma) clamped to 1..15.
func GaussianKernel(sigma float64) BlurKernel {
	if !(sigma > 0) {
		panic(fmt.Sprintf("raster: GaussianKernel wants sigma > 0, got %v", sigma))
	}
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
	k := make([]uint64, len(raw))
	var isum uint64
	for i, v := range raw {
		k[i] = uint64(v / sum * (1 << kShift))
		isum += k[i]
	}
	// Push rounding residue into the center tap so the kernel sums to 1.0.
	k[radius] += (1 << kShift) - isum
	// raw is exactly symmetric (d enters only as d*d), so the upper half
	// is the whole kernel.
	return BlurKernel{taps: k[radius:]}
}

// BlurScratch is BlurInto's reusable working memory. The zero value is
// ready; it grows to the widest plane and largest radius it has served and
// is allocation-free from then on. A scratch must not be shared between
// concurrent calls.
type BlurScratch struct {
	pad   []byte   // one source row, edge-replicated by the radius
	words []uint64 // the widened pad, an accumulator row, and the row ring
}

// reserve sizes the scratch for a w-wide plane and the given radius.
func (s *BlurScratch) reserve(w, radius int) {
	wp := (w + 1) / 2
	if n := 2 * (wp + radius); len(s.pad) < n {
		s.pad = make([]byte, n)
	}
	if n := 2*(wp+radius) + wp + wp<<bits.Len(uint(2*radius)); len(s.words) < n {
		s.words = make([]uint64, n)
	}
}

// BlurInto blurs every plane of src with k into dst, which must be a
// same-shape YUV420 frame distinct from src. Every byte of dst is written,
// so a pooled dst with stale contents is safe. Once scratch has grown to
// the frame's size BlurInto performs no heap allocation.
//
//v2v:hotpath
func BlurInto(dst, src *frame.Frame, k BlurKernel, scratch *BlurScratch) {
	mustYUV(src, "BlurInto") //v2v:nolint(hotpath) inlined shape-check panic path; never taken on the warm loop
	mustYUV(dst, "BlurInto") //v2v:nolint(hotpath) inlined shape-check panic path; never taken on the warm loop
	if dst == src || !dst.SameShape(src) {
		panic(fmt.Sprintf("raster: BlurInto dst %dx%d must be a distinct frame shaped like src %dx%d", dst.W, dst.H, src.W, src.H)) //v2v:nolint(hotpath) cold panic path; allocates only when the caller broke the shape contract
	}
	if len(k.taps) == 0 {
		panic("raster: BlurInto wants a kernel from GaussianKernel") //v2v:nolint(hotpath) cold panic path
	}
	scratch.reserve(src.W, len(k.taps)-1) //v2v:nolint(hotpath) inlined growth path; allocates only until the scratch has served this width and radius once
	sp, dp := planes3(src), planes3(dst)
	gaussPlane(dp[0], sp[0], src.W, src.H, k.taps, scratch)
	gaussPlane(dp[1], sp[1], src.W/2, src.H/2, k.taps, scratch)
	gaussPlane(dp[2], sp[2], src.W/2, src.H/2, k.taps, scratch)
}

// laneMask keeps the byte at the bottom of each 32-bit lane of a word.
const laneMask = 0xFF<<32 | 0xFF

// gaussPlane is the separable blur of one w×h plane with clamped edges. For
// every pixel it computes exactly
//
//	tmp[y][x] = (Σ_k src[y][clamp(x+k)] * weight[k]) >> kShift
//	dst[y][x] = (Σ_k tmp[clamp(y+k)][x] * weight[k]) >> kShift
//
// — the two-stage truncation of the textbook loop nest (kept as the test
// oracle), so the output is byte-identical to it. Integer sums are exact in
// any order, which frees the loops to be arranged for the machine:
//
//   - each source row is copied into a row padded with its edge pixels, so
//     clamp(x+k) becomes a plain offset and no inner loop carries a branch;
//   - the symmetric taps fold: p[x-k]*c + p[x+k]*c == (p[x-k]+p[x+k])*c;
//   - rows are widened to two pixels per uint64, one per 32-bit lane. A sum
//     never exceeds 255<<kShift (see BlurKernel), so lanes cannot carry
//     into each other and one add or multiply serves both pixels. The
//     padded row is widened twice, starting at pixel 0 and at pixel 1, so
//     a tap at any offset reads aligned words;
//   - both passes are then the same tap-outer, word-inner loops over
//     equal-length rows (foldCenter, foldTap), free of bounds checks;
//   - the vertical pass needs only the last 2r+1 horizontally filtered
//     rows, which live in a ring: it reads contiguous rows still in cache
//     and no plane-sized temporary exists.
//
// When w is odd the last word's upper lane filters one more replicated
// edge pixel; it is never stored.
//
//v2v:hotpath
func gaussPlane(dst, src []byte, w, h int, taps []uint64, s *BlurScratch) {
	if w == 0 || h == 0 {
		return
	}
	r := len(taps) - 1
	wp := (w + 1) / 2                 // words per row
	slots := 1 << bits.Len(uint(2*r)) // a power of two >= 2r+1
	n := wp + r                       // words in the padded row
	pad := s.pad[:2*n]
	even, rest := s.words[:n], s.words[n:] // even[j] = pad[2j], pad[2j+1]
	odd, rest := rest[:n], rest[n:]        // odd[j]  = pad[2j+1], pad[2j+2]
	acc, ring := rest[:wp], rest[wp:wp+slots*wp]

	padRow := func(off int) []uint64 { // the padded row shifted by off pixels
		m := r + off
		if m&1 == 0 {
			return even[m>>1 : m>>1+wp]
		}
		return odd[m>>1 : m>>1+wp]
	}
	ringRow := func(y int) []uint64 { // filtered row y, clamped to the plane
		slot := max(0, min(y, h-1)) & (slots - 1)
		return ring[slot*wp : (slot+1)*wp]
	}
	filled := 0 // source rows [0, filled) have been filtered into the ring
	for y := 0; y < h; y++ {
		// Output row y reads filtered rows y-r..y+r: at most 2r+1 live
		// rows, so no two of them share a ring slot.
		for ; filled <= min(y+r, h-1); filled++ {
			row := src[filled*w : (filled+1)*w]
			for i := range pad[:r] {
				pad[i] = row[0]
			}
			copy(pad[r:], row)
			for i := range pad[r+w:] {
				pad[r+w+i] = row[w-1]
			}
			for j := range even {
				even[j] = uint64(pad[2*j]) | uint64(pad[2*j+1])<<32
			}
			for j := range odd[:n-1] {
				odd[j] = even[j]>>32 | even[j+1]<<32
			}
			foldCenter(acc, padRow(0), taps[0])
			for k := 1; k <= r; k++ {
				foldTap(acc, padRow(-k), padRow(k), taps[k])
			}
			out := ringRow(filled)
			for j, v := range acc {
				out[j] = v >> kShift & laneMask
			}
		}
		foldCenter(acc, ringRow(y), taps[0])
		for k := 1; k <= r; k++ {
			foldTap(acc, ringRow(y-k), ringRow(y+k), taps[k])
		}
		out := dst[y*w : (y+1)*w]
		for j, v := range acc[:w/2] {
			out[2*j], out[2*j+1] = byte(v>>kShift), byte(v>>(32+kShift))
		}
		if w&1 == 1 {
			out[w-1] = byte(acc[wp-1] >> kShift)
		}
	}
}

// foldCenter starts a row of weighted sums with the center tap.
//
//v2v:hotpath
func foldCenter(acc, center []uint64, c uint64) {
	center = center[:len(acc)]
	for i := range acc {
		acc[i] = center[i] * c
	}
}

// foldTap adds one folded tap: the two rows at equal distance either side
// of the center share the weight c.
//
//v2v:hotpath
func foldTap(acc, lo, hi []uint64, c uint64) {
	lo, hi = lo[:len(acc)], hi[:len(acc)]
	for i := range acc {
		acc[i] += (lo[i] + hi[i]) * c
	}
}

// Convolve3x3 applies a 3x3 kernel (with divisor and bias) to the luma
// plane, leaving chroma untouched. Used by sharpen/edge-detect transforms.
func Convolve3x3(src *frame.Frame, k [9]int, div, bias int) *frame.Frame {
	if src.Format != frame.FormatYUV420 {
		panic(fmt.Sprintf("raster: Convolve3x3 wants yuv420, got %v", src.Format))
	}
	if div == 0 {
		div = 1
	}
	dst := src.Clone()
	sp, dp := src.Planes(), dst.Planes()
	w, h := src.W, src.H
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc int
			idx := 0
			for dy := -1; dy <= 1; dy++ {
				sy := clampInt(y+dy, 0, h-1)
				for dx := -1; dx <= 1; dx++ {
					sx := clampInt(x+dx, 0, w-1)
					acc += int(sp[0][sy*w+sx]) * k[idx]
					idx++
				}
			}
			v := acc/div + bias
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			dp[0][y*w+x] = byte(v)
		}
	}
	return dst
}

// Sharpen applies a standard unsharp 3x3 kernel to luma.
func Sharpen(src *frame.Frame) *frame.Frame {
	return Convolve3x3(src, [9]int{0, -1, 0, -1, 5, -1, 0, -1, 0}, 1, 0)
}

// EdgeDetect applies a Laplacian kernel to luma and flattens chroma,
// producing a gray edge map in YUV420.
func EdgeDetect(src *frame.Frame) *frame.Frame {
	out := Convolve3x3(src, [9]int{-1, -1, -1, -1, 8, -1, -1, -1, -1}, 1, 0)
	p := out.Planes()
	for i := range p[1] {
		p[1][i] = 128
		p[2][i] = 128
	}
	return out
}

// Grade adjusts brightness (additive, -255..255) and contrast (multiplier
// about the mid-point, e.g. 1.2) on the luma plane and saturation
// (multiplier about 128) on chroma.
func Grade(src *frame.Frame, brightness int, contrast, saturation float64) *frame.Frame {
	if src.Format != frame.FormatYUV420 {
		panic(fmt.Sprintf("raster: Grade wants yuv420, got %v", src.Format))
	}
	dst := src.Clone()
	p := dst.Planes()
	// Precompute LUTs: deterministic and fast.
	var lumaLUT, chromaLUT [256]byte
	for i := 0; i < 256; i++ {
		v := (float64(i)-128)*contrast + 128 + float64(brightness)
		lumaLUT[i] = clampF(v)
		c := (float64(i)-128)*saturation + 128
		chromaLUT[i] = clampF(c)
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

// Denoise applies a 3x3 box filter to all planes — a cheap smoothing
// transform exposed by the Filter grammar.
func Denoise(src *frame.Frame) *frame.Frame {
	if src.Format != frame.FormatYUV420 {
		panic(fmt.Sprintf("raster: Denoise wants yuv420, got %v", src.Format))
	}
	dst := frame.New(src.W, src.H, frame.FormatYUV420)
	sp, dp := src.Planes(), dst.Planes()
	boxPlane(sp[0], dp[0], src.W, src.H)
	boxPlane(sp[1], dp[1], src.W/2, src.H/2)
	boxPlane(sp[2], dp[2], src.W/2, src.H/2)
	return dst
}

func boxPlane(src, dst []byte, w, h int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc, n int
			for dy := -1; dy <= 1; dy++ {
				sy := y + dy
				if sy < 0 || sy >= h {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					sx := x + dx
					if sx < 0 || sx >= w {
						continue
					}
					acc += int(src[sy*w+sx])
					n++
				}
			}
			dst[y*w+x] = byte(acc / n)
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return byte(v + 0.5)
}
