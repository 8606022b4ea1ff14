package raster

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"v2v/internal/frame"
)

// GaussianBlur is the allocating form of BlurInto.
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
	BlurInto(dst, src, sigma)
	return dst
}

// kShift is the fixed-point scale of the blur kernel weights.
const kShift = 12

// maxRadius caps the blur kernel's radius.
const maxRadius = 15

// blurKernel is a normalized integer Gaussian kernel in folded form:
// taps[0] is the center weight and taps[k] the weight at distance k on
// either side, for k up to the radius r. The weights are non-negative and
// the unfolded kernel sums to exactly 1<<kShift, so a weighted sum of bytes
// never exceeds 255<<kShift. It is a value: building one per frame costs a
// few dozen exponentials and allocates nothing, so no cache keyed by sigma
// is needed.
type blurKernel struct {
	taps [maxRadius + 1]uint64
	r    int
}

// gaussianKernel builds the kernel for sigma (> 0), with radius
// ceil(3*sigma) clamped to 1..maxRadius.
//
//v2v:hotpath
func gaussianKernel(sigma float64) blurKernel {
	if !(sigma > 0) {
		panic(fmt.Sprintf("raster: blur wants sigma > 0, got %v", sigma)) //v2v:nolint(hotpath) cold panic path; allocates only when the caller broke the sigma contract
	}
	r := min(max(int(math.Ceil(3*sigma)), 1), maxRadius)
	// The kernel is symmetric (d enters only as d*d), so raw holds its upper
	// half. Float addition depends on order: sum runs over the unfolded
	// kernel from -r to r, as the reference does.
	var raw [maxRadius + 1]float64
	sum := 0.0
	for d := r; d >= 0; d-- {
		raw[d] = math.Exp(-float64(d*d) / (2 * sigma * sigma))
		sum += raw[d]
	}
	for d := 1; d <= r; d++ {
		sum += raw[d]
	}
	k := blurKernel{r: r}
	var isum uint64 // the unfolded kernel's sum: every tap but the center counts twice
	for d := 0; d <= r; d++ {
		k.taps[d] = uint64(raw[d] / sum * (1 << kShift))
		isum += 2 * k.taps[d]
	}
	// Push rounding residue into the center tap so the kernel sums to 1.0.
	k.taps[0] += (1 << kShift) - (isum - k.taps[0])
	return k
}

// blurScratch is BlurInto's working memory. It grows to the widest plane
// and largest radius it has served and is allocation-free from then on.
type blurScratch struct {
	pad   []byte   // one source row, edge-replicated by the radius
	words []uint64 // the widened pad's three phases, an accumulator row, and the row ring
}

// blurScratches recycles working memory across BlurInto calls on any
// goroutine; the pool drops what the garbage collector reclaims, so it is
// bounded by the blurs actually running.
var blurScratches = sync.Pool{New: func() any { return new(blurScratch) }}

// reserve sizes the scratch for a w-wide plane and the given radius.
func (s *blurScratch) reserve(w, radius int) {
	wp := (w + 2) / 3
	n := wp + 2*radius/3 // words in each phase of the padded row
	if len(s.pad) < 3*n+2 {
		s.pad = make([]byte, 3*n+2)
	}
	if m := 3*n + wp + wp<<bits.Len(uint(2*radius)); len(s.words) < m {
		s.words = make([]uint64, m)
	}
}

// BlurInto applies a separable Gaussian blur with the given sigma (> 0) to
// every plane of src, writing dst, which must be a same-shape YUV420 frame
// distinct from src. This is the pixel-wise filter of benchmark queries
// Q4/Q9. Every byte of dst is written, so a pooled dst with stale contents
// is safe. Warm, BlurInto performs no heap allocation.
//
//v2v:hotpath
func BlurInto(dst, src *frame.Frame, sigma float64) {
	mustYUV(src, "BlurInto") //v2v:nolint(hotpath) inlined shape-check panic path; never taken on the warm loop
	mustYUV(dst, "BlurInto") //v2v:nolint(hotpath) inlined shape-check panic path; never taken on the warm loop
	if dst == src || !dst.SameShape(src) {
		panic(fmt.Sprintf("raster: BlurInto dst %dx%d must be a distinct frame shaped like src %dx%d", dst.W, dst.H, src.W, src.H)) //v2v:nolint(hotpath) cold panic path; allocates only when the caller broke the shape contract
	}
	k := gaussianKernel(sigma)
	taps := k.taps[:k.r+1]
	s := blurScratches.Get().(*blurScratch)
	s.reserve(src.W, k.r) //v2v:nolint(hotpath) inlined growth path; allocates only until a pooled scratch has served this width and radius once
	sp, dp := planes3(src), planes3(dst)
	gaussPlane(dp[0], sp[0], src.W, src.H, taps, s)
	gaussPlane(dp[1], sp[1], src.W/2, src.H/2, taps, s)
	gaussPlane(dp[2], sp[2], src.W/2, src.H/2, taps, s)
	blurScratches.Put(s)
}

// laneBits is the width of one pixel's lane in a packed word: three lanes
// fill bits 0–62 of a uint64, and bit 63 stays clear.
const laneBits = 21

// laneMask keeps the byte at the bottom of each 21-bit lane of a word.
const laneMask = 0xFF | 0xFF<<laneBits | 0xFF<<(2*laneBits)

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
//   - rows are widened to three pixels per uint64, one per 21-bit lane. A
//     sum never exceeds 255<<kShift < 2²⁰ (see blurKernel), so lanes cannot
//     carry into each other and one add or multiply serves three pixels.
//     The padded row is widened three times, starting at pixels 0, 1 and
//     2, so a tap at any offset reads aligned words;
//   - both passes are then the same tap-outer, word-inner loops over
//     equal-length rows (foldRow), free of bounds checks, which fold two
//     taps per pass over the accumulator row;
//   - the vertical pass needs only the last 2r+1 horizontally filtered
//     rows, which live in a ring: it reads contiguous rows still in cache
//     and no plane-sized temporary exists.
//
// When 3 does not divide w the last word's upper lanes filter replicated
// edge pixels; they are never stored.
//
//v2v:hotpath
func gaussPlane(dst, src []byte, w, h int, taps []uint64, s *blurScratch) {
	if w == 0 || h == 0 {
		return
	}
	r := len(taps) - 1
	wp := (w + 2) / 3                 // words per row
	slots := 1 << bits.Len(uint(2*r)) // a power of two >= 2r+1
	n := wp + 2*r/3                   // words in each phase of the padded row
	pad := s.pad[:3*n+2]
	phase := [3][]uint64{s.words[:n], s.words[n : 2*n], s.words[2*n : 3*n]} // phase[p][j] = pad[3j+p..3j+p+2]
	acc, ring := s.words[3*n:3*n+wp], s.words[3*n+wp:3*n+wp+slots*wp]

	padRow := func(off int) []uint64 { // the padded row shifted by off pixels
		m := r + off
		return phase[m%3][m/3 : m/3+wp]
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
			// Each phase is the one before it moved down a lane, with the
			// next pixel in the top lane; no shift reaches bit 63.
			for j := range phase[0] {
				q := pad[3*j : 3*j+5]
				p0 := uint64(q[0]) | uint64(q[1])<<laneBits | uint64(q[2])<<(2*laneBits)
				p1 := p0>>laneBits | uint64(q[3])<<(2*laneBits)
				phase[0][j], phase[1][j], phase[2][j] = p0, p1, p1>>laneBits|uint64(q[4])<<(2*laneBits)
			}
			foldRow(acc, padRow, taps)
			out := ringRow(filled)
			for j, v := range acc {
				out[j] = v >> kShift & laneMask
			}
		}
		foldRow(acc, func(off int) []uint64 { return ringRow(y + off) }, taps)
		out := dst[y*w : (y+1)*w]
		for j, v := range acc[:w/3] {
			out[3*j], out[3*j+1], out[3*j+2] = byte(v>>kShift), byte(v>>(laneBits+kShift)), byte(v>>(2*laneBits+kShift))
		}
		for i, x := 0, w/3*3; x < w; i, x = i+1, x+1 {
			out[x] = byte(acc[wp-1] >> (i*laneBits + kShift))
		}
	}
}

// foldRow sets acc to the folded weighted sum of the rows row(-r)..row(r),
// where row(k) is the input row at offset k and r = len(taps)-1. The
// center pass also takes tap 1 when r is odd, so every later pass over acc
// folds two taps.
//
//v2v:hotpath
func foldRow(acc []uint64, row func(k int) []uint64, taps []uint64) {
	r, k := len(taps)-1, 1
	if r&1 == 1 {
		foldCenterTap(acc, row(0), taps[0], row(-1), row(1), taps[1])
		k = 2
	} else {
		foldCenter(acc, row(0), taps[0])
	}
	for ; k < r; k += 2 {
		foldTaps(acc, row(-k), row(k), taps[k], row(-k-1), row(k+1), taps[k+1])
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

// foldCenterTap starts a row of weighted sums with the center tap and the
// folded tap next to it: the two rows at distance 1 share the weight c1.
//
//v2v:hotpath
func foldCenterTap(acc, center []uint64, c0 uint64, lo, hi []uint64, c1 uint64) {
	center, lo, hi = center[:len(acc)], lo[:len(acc)], hi[:len(acc)]
	for i := range acc {
		acc[i] = center[i]*c0 + (lo[i]+hi[i])*c1
	}
}

// foldTaps adds two folded taps: rows lo1 and hi1 share the weight c1,
// rows lo2 and hi2 the weight c2.
//
//v2v:hotpath
func foldTaps(acc, lo1, hi1 []uint64, c1 uint64, lo2, hi2 []uint64, c2 uint64) {
	lo1, hi1, lo2, hi2 = lo1[:len(acc)], hi1[:len(acc)], lo2[:len(acc)], hi2[:len(acc)]
	for i := range acc {
		acc[i] += (lo1[i]+hi1[i])*c1 + (lo2[i]+hi2[i])*c2
	}
}

// convolveLuma applies a 3x3 kernel to the luma plane of src, writing
// dst's luma plane; the caller writes chroma.
func convolveLuma(dst, src *frame.Frame, k [9]int) {
	mustMatch(dst, src, "convolve")
	sp, dp := planes3(src), planes3(dst)
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
			dp[0][y*w+x] = byte(clampInt(acc, 0, 255))
		}
	}
}

// SharpenInto applies a standard unsharp 3x3 kernel to luma; chroma is
// copied.
func SharpenInto(dst, src *frame.Frame) {
	convolveLuma(dst, src, [9]int{0, -1, 0, -1, 5, -1, 0, -1, 0})
	ys := src.W * src.H
	copy(dst.Pix[ys:], src.Pix[ys:])
}

// EdgeDetectInto applies a Laplacian kernel to luma and flattens chroma,
// producing a gray edge map.
func EdgeDetectInto(dst, src *frame.Frame) {
	convolveLuma(dst, src, [9]int{-1, -1, -1, -1, 8, -1, -1, -1, -1})
	chroma := dst.Pix[dst.W*dst.H:]
	for i := range chroma {
		chroma[i] = 128
	}
}

// DenoiseInto applies a 3x3 box filter to all planes — a cheap smoothing
// transform exposed by the Filter grammar.
func DenoiseInto(dst, src *frame.Frame) {
	mustMatch(dst, src, "Denoise")
	sp, dp := planes3(src), planes3(dst)
	boxPlane(sp[0], dp[0], src.W, src.H)
	boxPlane(sp[1], dp[1], src.W/2, src.H/2)
	boxPlane(sp[2], dp[2], src.W/2, src.H/2)
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
