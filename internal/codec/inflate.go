package codec

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// GV1's DEFLATE reader (RFC 1951). It inflates a payload straight into the
// decoder's residual, the whole frame being the window, so a match that
// does not overlap its source is one copy. It reads stored, fixed and
// dynamic blocks, many per stream (what compress/flate's writer wrote for
// older encoders too), accepts what compress/flate accepts, and requires
// the final block to end exactly at the end of the residual and of the
// payload. Input comes through a 64-bit bit buffer refilled a word at a
// time, symbols through two-level tables built once per block.
const (
	litRoot, distRoot = 9, 8
	// A root table plus every subtable a complete code of up to 288
	// symbols of at most 15 bits needs (852 entries), rounded up to a
	// power of two so a masked index needs no bounds check.
	tableSize = 1024
	// refillBelow is the most bits one match takes: a length code and its
	// extra bits, a distance code and its extra bits.
	refillBelow = 15 + 5 + 15 + 13
)

// table is a two-level decoding table (buildTable).
type table [tableSize]uint32

// A table entry holds the value (literal, length or distance base,
// code-length symbol, or subtable offset) in bits 16–31, the kind in bits
// 8–11, the extra bits to read (a subtable's index bits) in bits 4–7 and
// the code's length in bits 0–3. A bad entry is an unused code or one of
// the symbols 286, 287, 30 and 31.
const (
	entLit  = 1 << 8
	entEOB  = 1 << 9
	entLink = 1 << 10
	entBad  = 1 << 11
)

var (
	errCorrupt = errors.New("corrupt or truncated DEFLATE stream")
	errSize    = errors.New("DEFLATE stream does not end at the end of the frame and of the packet")
)

// Each symbol's entry without its code length, from deflate.go's RFC 1951
// tables (code-length symbols use litValue), and the fixed block's tables.
var (
	litValue  [numLitLen + 2]uint32
	distValue [numDist + 2]uint32
	fixedLit  table
	fixedDist table
)

func init() {
	var lens [numLitLen + 2]uint8
	for s := range lens {
		litValue[s], lens[s] = uint32(s)<<16|entLit, 8
		if s >= 144 && s < 256 {
			lens[s] = 9
		} else if s >= 256 && s < 280 {
			lens[s] = 7
		}
	}
	litValue[endOfBlock], litValue[numLitLen], litValue[numLitLen+1] = entEOB, entBad, entBad
	for c := range lengthBase {
		litValue[257+c] = uint32(lengthBase[c]+3)<<16 | uint32(lengthExtra[c])<<4
	}
	for c := range distBase {
		distValue[c] = uint32(distBase[c]+1)<<16 | uint32(distExtra[c])<<4
	}
	distValue[numDist], distValue[numDist+1] = entBad, entBad
	buildTable(&fixedLit, lens[:], litValue[:], litRoot)
	for s := range distValue {
		lens[s] = 5
	}
	buildTable(&fixedDist, lens[:len(distValue)], distValue[:], distRoot)
}

// inflater holds a dynamic block's tables and code lengths, and the input:
// in[pos:] not yet loaded, and the low nb bits of b loaded, not consumed.
// Past the end of in it loads zeros; a stream that consumes any is
// truncated.
type inflater struct {
	lit, dist, cl table
	lens          [numLitLen + numDist]uint8
	in            []byte
	pos           int
	b             uint64
	nb            uint
}

// refill tops the bit buffer up to at least 56 bits.
func (f *inflater) refill() {
	if f.pos+8 <= len(f.in) {
		f.b |= binary.LittleEndian.Uint64(f.in[f.pos:]) << f.nb
		f.pos += int(63-f.nb) >> 3
		f.nb |= 56
		return
	}
	for ; f.nb < 56; f.nb += 8 {
		if f.pos < len(f.in) {
			f.b |= uint64(f.in[f.pos]) << f.nb
		}
		f.pos++
	}
}

// bits consumes and returns the next n bits, which the buffer holds.
func (f *inflater) bits(n uint) uint32 {
	v := uint32(f.b & (1<<n - 1))
	f.b >>= n
	f.nb -= n
	return v
}

// inflate decodes the DEFLATE stream in into out, which it must fill.
func (f *inflater) inflate(in, out []byte) error {
	f.in, f.pos, f.b, f.nb = in, 0, 0, 0
	o, err := 0, error(nil)
	for final := false; !final && err == nil; {
		f.refill()
		final = f.bits(1) == 1
		switch f.bits(2) {
		case 0: // stored: the rest of the byte, a length and its complement
			f.pos, f.b, f.nb = f.pos-int(f.nb>>3), 0, 0
			if f.pos+4 > len(in) {
				return errCorrupt
			}
			h := binary.LittleEndian.Uint32(in[f.pos:])
			n := int(h & 0xffff)
			if f.pos += 4; uint16(h>>16) != ^uint16(n) || f.pos+n > len(in) {
				return errCorrupt
			} else if n > len(out)-o {
				return errSize
			}
			f.pos += copy(out[o:], in[f.pos:f.pos+n])
			o += n
		case 1:
			o, err = f.block(&fixedLit, &fixedDist, out, o)
		case 2:
			if err = f.readCodes(); err == nil {
				o, err = f.block(&f.lit, &f.dist, out, o)
			}
		default:
			err = errCorrupt
		}
	}
	if used := f.pos*8 - int(f.nb); err == nil && used > len(in)*8 {
		err = errCorrupt
	} else if err == nil && ((used+7)/8 != len(in) || o != len(out)) {
		err = errSize
	}
	return err
}

// readCodes reads a dynamic block's header and builds its tables.
func (f *inflater) readCodes() error {
	f.refill()
	nlit, ndist, ncl := int(f.bits(5))+257, int(f.bits(5))+1, int(f.bits(4))+4
	if nlit > numLitLen || ndist > numDist {
		return errCorrupt
	}
	var clLens [numCodeLen]uint8
	for _, s := range codeLenOrder[:ncl] {
		f.refill()
		clLens[s] = uint8(f.bits(3))
	}
	if !buildTable(&f.cl, clLens[:], litValue[:numCodeLen], maxCLBits) {
		return errCorrupt
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		f.refill()
		e := lookup(&f.cl, f.b, maxCLBits)
		f.bits(uint(e & 15))
		v, rep := uint8(e>>16), 1
		switch {
		case e&entBad != 0 || (v == 16 && i == 0):
			return errCorrupt
		case v == 16:
			v, rep = lens[i-1], 3+int(f.bits(2))
		case v == 17:
			v, rep = 0, 3+int(f.bits(3))
		case v == 18:
			v, rep = 0, 11+int(f.bits(7))
		}
		if i+rep > len(lens) {
			return errCorrupt
		}
		for end := i + rep; i < end; i++ {
			lens[i] = v
		}
	}
	if !buildTable(&f.lit, lens[:nlit], litValue[:], litRoot) ||
		!buildTable(&f.dist, lens[nlit:], distValue[:], distRoot) {
		return errCorrupt
	}
	return nil
}

// block decodes one Huffman block's symbols into out from o, up to and
// including its end-of-block code, and returns the new end of out.
//
//v2v:hotpath
func (f *inflater) block(lit, dist *table, out []byte, o int) (int, error) {
	b, nb, in := f.b, f.nb, f.in
	for {
		if nb < refillBelow {
			// refill's word-at-a-time path, kept on the loop's locals.
			if p := f.pos; p+8 <= len(in) {
				b |= binary.LittleEndian.Uint64(in[p:]) << nb
				f.pos = p + int(63-nb)>>3
				nb |= 56
			} else {
				f.b, f.nb = b, nb
				f.refill()
				b, nb = f.b, f.nb
			}
		}
		e := lookup(lit, b, litRoot)
		n := uint(e & 15)
		b >>= n
		nb -= n
		if e&entLit != 0 {
			if uint(o) >= uint(len(out)) {
				return o, errSize
			}
			out[o] = byte(e >> 16)
			o++
			continue
		}
		if e&entEOB != 0 {
			f.b, f.nb = b, nb
			return o, nil
		}
		// A length (or a bad entry, whose value is 0), then a distance.
		x := uint(e >> 4 & 15)
		length := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		de := lookup(dist, b, distRoot)
		b >>= de & 15
		d := int(de>>16) + int(b&(1<<(de>>4&15)-1))
		b >>= de >> 4 & 15
		nb -= x + uint(de&15) + uint(de>>4&15)
		switch {
		case (e|de)&entBad != 0 || d > o:
			return o, errCorrupt
		case length > len(out)-o:
			return o, errSize
		case d >= length:
			copy(out[o:o+length], out[o-d:])
		default: // an overlap repeats the last d bytes; each copy doubles them
			for p := o; p < o+length; {
				p += copy(out[p:o+length], out[o-d:p])
			}
		}
		o += length
	}
}

// lookup returns the entry of the code b starts with in t, whose root
// table is root bits wide.
func lookup(t *table, b uint64, root uint) uint32 {
	e := t[b&(1<<root-1)&(tableSize-1)]
	if e&entLink != 0 {
		e = t[(e>>16+uint32(b>>root)&(1<<(e>>4&15)-1))&(tableSize-1)]
	}
	return e
}

// buildTable fills t with the decoding table, root bits wide, of the
// canonical code with the given lengths; value[s] is symbol s's entry
// without its length. It reports false for a code compress/flate rejects:
// oversubscribed, or incomplete other than a lone one-bit code or no code
// at all, whose unused entries are bad.
//
//v2v:hotpath
func buildTable(t *table, lens []uint8, value []uint32, root uint) bool {
	var count, offs [maxCodeBits + 1]uint16
	maxLen, left := uint(0), 1
	for _, l := range lens {
		count[l]++
		maxLen = max(maxLen, uint(l))
	}
	count[0] = 0
	for l := 1; l <= maxCodeBits; l++ {
		if left = left<<1 - int(count[l]); left < 0 {
			return false
		}
	}
	if left > 0 && (maxLen > 1 || (maxLen == 1 && count[1] != 1)) {
		return false
	} else if left > 0 {
		for i := range t[:1<<root] {
			t[i] = entBad
		}
	}
	for l := 1; l < maxCodeBits; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [numLitLen + 2]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	// Canonical codes in order, most significant bit first (DEFLATE sends
	// them reversed). Up to root bits the table is built 2^l entries wide,
	// then doubled: a code of length l belongs at every index ending in
	// its reversed bits.
	code, k, l := 0, 0, uint(1)
	for ; l <= root; l++ {
		for c := count[l]; c > 0; c-- {
			t[bits.Reverse16(uint16(code))>>(16-l)] = value[sorted[k]] | uint32(l)
			code, k = code+1, k+1
		}
		code <<= 1
		if l < root {
			copy(t[1<<l:2<<l], t[:1<<l])
		}
	}
	next, prefix, sub, subBits := 1<<root, -1, 0, uint(0)
	for ; l <= maxLen; l++ {
		for ; count[l] > 0; count[l]-- {
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			if p := rev & (1<<root - 1); p != prefix {
				// A new subtable, as wide as the longest code under this
				// prefix: widen it while the codes left of each length
				// leave slots unfilled.
				subBits = l - root
				for fill := 1 << subBits; root+subBits < maxLen; subBits++ {
					if fill -= int(count[root+subBits]); fill <= 0 {
						break
					}
					fill <<= 1
				}
				prefix, sub, next = p, next, next+1<<subBits
				t[p] = uint32(sub)<<16 | entLink | uint32(subBits)<<4
			}
			for i := rev >> root; i < 1<<subBits; i += 1 << (l - root) {
				t[sub+i] = value[sorted[k]] | uint32(l)
			}
			code, k = code+1, k+1
		}
		code <<= 1
	}
	return true
}
