package raster

import (
	"fmt"

	"v2v/internal/frame"
)

// Color is a YUV color used by drawing operations.
type Color struct {
	Y, Cb, Cr byte
}

// Common drawing colors.
var (
	White  = Color{255, 128, 128}
	Black  = Color{0, 128, 128}
	Red    = Color{76, 85, 255}
	Green  = Color{150, 44, 21}
	Blue   = Color{29, 255, 107}
	Yellow = Color{226, 1, 149}
)

// Rect is an integer pixel rectangle.
type Rect struct {
	X, Y, W, H int
}

// clip returns r clipped to a w×h frame, and whether anything remains.
func (r Rect) clip(w, h int) (Rect, bool) {
	x0, y0 := clampInt(r.X, 0, w), clampInt(r.Y, 0, h)
	x1, y1 := clampInt(r.X+r.W, 0, w), clampInt(r.Y+r.H, 0, h)
	if x1 <= x0 || y1 <= y0 {
		return Rect{}, false
	}
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}, true
}

// FillRect draws a solid rectangle. Out-of-bounds portions are clipped.
func FillRect(dst *frame.Frame, r Rect, c Color) {
	mustYUV(dst, "FillRect")
	cr, ok := r.clip(dst.W, dst.H)
	if !ok {
		return
	}
	p := dst.Planes()
	for y := cr.Y; y < cr.Y+cr.H; y++ {
		row := p[0][y*dst.W:]
		for x := cr.X; x < cr.X+cr.W; x++ {
			row[x] = c.Y
		}
	}
	cw := dst.W / 2
	for y := cr.Y / 2; y < (cr.Y+cr.H+1)/2; y++ {
		for x := cr.X / 2; x < (cr.X+cr.W+1)/2; x++ {
			p[1][y*cw+x] = c.Cb
			p[2][y*cw+x] = c.Cr
		}
	}
}

// DrawRect draws a rectangle outline of the given thickness. This is the
// primitive behind BoundingBox.
func DrawRect(dst *frame.Frame, r Rect, thickness int, c Color) {
	if thickness < 1 {
		thickness = 1
	}
	FillRect(dst, Rect{r.X, r.Y, r.W, thickness}, c)
	FillRect(dst, Rect{r.X, r.Y + r.H - thickness, r.W, thickness}, c)
	FillRect(dst, Rect{r.X, r.Y, thickness, r.H}, c)
	FillRect(dst, Rect{r.X + r.W - thickness, r.Y, thickness, r.H}, c)
}

// font5x7 is a compact bitmap font covering the characters annotation
// overlays need. Each glyph is 5 columns × 7 rows, one byte per row with
// the low 5 bits used (bit 4 = leftmost column).
var font5x7 = map[rune][7]byte{
	' ': {0, 0, 0, 0, 0, 0, 0},
	'0': {0x0E, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0E},
	'1': {0x04, 0x0C, 0x04, 0x04, 0x04, 0x04, 0x0E},
	'2': {0x0E, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1F},
	'3': {0x1F, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0E},
	'4': {0x02, 0x06, 0x0A, 0x12, 0x1F, 0x02, 0x02},
	'5': {0x1F, 0x10, 0x1E, 0x01, 0x01, 0x11, 0x0E},
	'6': {0x06, 0x08, 0x10, 0x1E, 0x11, 0x11, 0x0E},
	'7': {0x1F, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08},
	'8': {0x0E, 0x11, 0x11, 0x0E, 0x11, 0x11, 0x0E},
	'9': {0x0E, 0x11, 0x11, 0x0F, 0x01, 0x02, 0x0C},
	'A': {0x0E, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11},
	'B': {0x1E, 0x11, 0x11, 0x1E, 0x11, 0x11, 0x1E},
	'C': {0x0E, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0E},
	'D': {0x1C, 0x12, 0x11, 0x11, 0x11, 0x12, 0x1C},
	'E': {0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x1F},
	'F': {0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x10},
	'G': {0x0E, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0F},
	'H': {0x11, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11},
	'I': {0x0E, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E},
	'J': {0x07, 0x02, 0x02, 0x02, 0x02, 0x12, 0x0C},
	'K': {0x11, 0x12, 0x14, 0x18, 0x14, 0x12, 0x11},
	'L': {0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1F},
	'M': {0x11, 0x1B, 0x15, 0x15, 0x11, 0x11, 0x11},
	'N': {0x11, 0x19, 0x15, 0x13, 0x11, 0x11, 0x11},
	'O': {0x0E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E},
	'P': {0x1E, 0x11, 0x11, 0x1E, 0x10, 0x10, 0x10},
	'Q': {0x0E, 0x11, 0x11, 0x11, 0x15, 0x12, 0x0D},
	'R': {0x1E, 0x11, 0x11, 0x1E, 0x14, 0x12, 0x11},
	'S': {0x0F, 0x10, 0x10, 0x0E, 0x01, 0x01, 0x1E},
	'T': {0x1F, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04},
	'U': {0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E},
	'V': {0x11, 0x11, 0x11, 0x11, 0x11, 0x0A, 0x04},
	'W': {0x11, 0x11, 0x11, 0x15, 0x15, 0x1B, 0x11},
	'X': {0x11, 0x11, 0x0A, 0x04, 0x0A, 0x11, 0x11},
	'Y': {0x11, 0x11, 0x0A, 0x04, 0x04, 0x04, 0x04},
	'Z': {0x1F, 0x01, 0x02, 0x04, 0x08, 0x10, 0x1F},
	'-': {0x00, 0x00, 0x00, 0x1F, 0x00, 0x00, 0x00},
	'_': {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1F},
	'.': {0x00, 0x00, 0x00, 0x00, 0x00, 0x0C, 0x0C},
	',': {0x00, 0x00, 0x00, 0x00, 0x0C, 0x04, 0x08},
	':': {0x00, 0x0C, 0x0C, 0x00, 0x0C, 0x0C, 0x00},
	'/': {0x01, 0x01, 0x02, 0x04, 0x08, 0x10, 0x10},
	'#': {0x0A, 0x0A, 0x1F, 0x0A, 0x1F, 0x0A, 0x0A},
	'%': {0x18, 0x19, 0x02, 0x04, 0x08, 0x13, 0x03},
	'(': {0x02, 0x04, 0x08, 0x08, 0x08, 0x04, 0x02},
	')': {0x08, 0x04, 0x02, 0x02, 0x02, 0x04, 0x08},
	'?': {0x0E, 0x11, 0x01, 0x02, 0x04, 0x00, 0x04},
	'!': {0x04, 0x04, 0x04, 0x04, 0x04, 0x00, 0x04},
	'+': {0x00, 0x04, 0x04, 0x1F, 0x04, 0x04, 0x00},
	'=': {0x00, 0x00, 0x1F, 0x00, 0x1F, 0x00, 0x00},
}

// GlyphWidth and GlyphHeight are the base glyph cell dimensions (one pixel
// of inter-character spacing is added by DrawText).
const (
	GlyphWidth  = 5
	GlyphHeight = 7
)

// TextWidth returns the pixel width of s drawn at the given scale.
func TextWidth(s string, scale int) int {
	if scale < 1 {
		scale = 1
	}
	n := 0
	for range s {
		n++
	}
	if n == 0 {
		return 0
	}
	return (n*(GlyphWidth+1) - 1) * scale
}

// DrawText renders s at (x, y) in the given color and integer scale.
// Lowercase letters are drawn with their uppercase glyphs; characters
// without a glyph render as '?'. Pixels outside the frame are clipped.
func DrawText(dst *frame.Frame, x, y int, s string, scale int, c Color) {
	mustYUV(dst, "DrawText")
	if scale < 1 {
		scale = 1
	}
	cx := x
	for _, r := range s {
		if r >= 'a' && r <= 'z' {
			r = r - 'a' + 'A'
		}
		glyph, ok := font5x7[r]
		if !ok {
			glyph = font5x7['?']
		}
		for gy := 0; gy < GlyphHeight; gy++ {
			bits := glyph[gy]
			for gx := 0; gx < GlyphWidth; gx++ {
				if bits&(1<<(GlyphWidth-1-gx)) == 0 {
					continue
				}
				FillRect(dst, Rect{cx + gx*scale, y + gy*scale, scale, scale}, c)
			}
		}
		cx += (GlyphWidth + 1) * scale
	}
}

// Label draws text on a contrasting filled background — the style used for
// bounding-box class annotations.
func Label(dst *frame.Frame, x, y int, s string, scale int, fg, bg Color) {
	pad := scale
	FillRect(dst, Rect{x - pad, y - pad, TextWidth(s, scale) + 2*pad, GlyphHeight*scale + 2*pad}, bg)
	DrawText(dst, x, y, s, scale, fg)
}

// LabelInto copies src into dst and burns text onto it at (x, y), black on
// yellow — the label transform.
func LabelInto(dst, src *frame.Frame, x, y int, text string) {
	copyInto(dst, src)
	Label(dst, x, y, text, labelScale(dst), Black, Yellow)
}

// labelScale is the glyph scale annotations use on fr: one per 240 rows.
func labelScale(fr *frame.Frame) int { return max(fr.H/240, 1) }

// Box is one object bounding box with its annotation metadata — the
// paper's BoxCoord. Coordinates are pixels in the source frame.
type Box struct {
	X, Y, W, H int
	Class      string
	Track      int
}

// BoundingBoxes is the allocating form of BoundingBoxesInto.
func BoundingBoxes(src *frame.Frame, boxes []Box) *frame.Frame {
	dst := frame.New(src.W, src.H, frame.FormatYUV420)
	BoundingBoxesInto(dst, src, boxes)
	return dst
}

// BoundingBoxesInto copies src into dst and draws each box outline plus a
// "CLASS #TRACK" label above it. An empty list leaves dst an unmodified
// copy — the identity behaviour the data-dependent rewriter exploits
// (BoundingBox_dde).
func BoundingBoxesInto(dst, src *frame.Frame, boxes []Box) {
	copyInto(dst, src)
	thickness := max(dst.H/120, 1)
	scale := labelScale(dst)
	for i, b := range boxes {
		c := boxPalette[i%len(boxPalette)]
		DrawRect(dst, Rect{b.X, b.Y, b.W, b.H}, thickness, c)
		label := b.Class
		if b.Track != 0 {
			label = fmt.Sprintf("%s #%d", b.Class, b.Track)
		}
		if label != "" {
			ty := b.Y - GlyphHeight*scale - 3*scale
			if ty < 0 {
				ty = b.Y + thickness + scale
			}
			Label(dst, b.X+thickness, ty+scale, label, scale, Black, c)
		}
	}
}

var boxPalette = []Color{Yellow, Red, Green, Blue, White}

func mustYUV(fr *frame.Frame, op string) {
	if fr.Format != frame.FormatYUV420 {
		panic(fmt.Sprintf("raster: %s wants yuv420, got %v", op, fr.Format))
	}
}

// mustMatch panics unless src is YUV420 and dst has its shape.
func mustMatch(dst, src *frame.Frame, op string) {
	mustYUV(src, op)
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("raster: %s dst %dx%d %v does not match src %dx%d", op, dst.W, dst.H, dst.Format, src.W, src.H))
	}
}
