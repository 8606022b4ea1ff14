package codec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// GV1's DEFLATE writer (RFC 1951), built for residual planes: long runs of
// one byte and rows that repeat the row before. It writes one final block
// per packet, dynamic-Huffman unless stored bytes would be smaller, and
// compress/flate's inflater reads it, so every stream an older encoder
// wrote still decodes and the decoder is unchanged.
//
// Matches are greedy (no chains, no lazy evaluation). At each position
// the last match's distance is tried first, stretched to the largest
// multiple that still reaches back into the bytes it matched, so runs and
// repeated rows continue at distances the inflater copies without
// overlap; then a one-probe hash table over 4-byte windows. A match is
// extended eight bytes at a time.
// Literal runs are tokens of their own: the block writer reads the bytes
// from the input, so the token buffer holds one word per run and one per
// match. The table stores position+base: base moves past every input, so
// an entry left by an earlier packet reads as a negative position and a
// recycled deflater writes the same bytes as a new one.
const (
	windowSize = 1 << 15 // the largest distance DEFLATE can code
	hashBits   = 15
	hashMul    = 0x1e35a7bd
	minMatch   = 4 // the hash covers four bytes
	// minLength is the shortest match emitted. compress/flate's inflater
	// pays a copy call per match, so a shorter one decodes slower than
	// its literals, and skipping it often lets a longer match start a
	// byte later. On rendered 384x172 and 384x216 frames, 8 rather than 4
	// made packets 2–16 % smaller and blur and grid packets inflate 7–12 %
	// faster, for 4–6 % more encode time.
	minLength = 8
	maxMatch  = 258
	// tailIndexed is how many of a match's last positions enter the
	// table: the next match most often starts there.
	tailIndexed = 4
	// skipLog sets how fast the match finder strides through input that
	// finds no matches: one byte more per 64 literals since the last
	// match, so noise costs a fraction of a probe per byte.
	skipLog = 6

	maxStored   = 65535   // bytes in one stored block
	maxDeflate  = 1 << 30 // larger inputs are stored (table positions are int32)
	matchBit    = 1 << 31 // token: match (else a literal run of that many bytes)
	endOfBlock  = 256
	numLitLen   = 286
	numDist     = 30
	numCodeLen  = 19
	maxCodeBits = 15 // lit/len and distance codes
	maxCLBits   = 7  // the code-length alphabet
)

// Length and distance symbols (RFC 1951 §3.2.5): base value, minus the
// smallest length (3) or distance (1), and extra bits per code.
var (
	lengthBase  = [29]uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 255}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [numDist]uint16{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576}
	distExtra   = [numDist]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// codeLenOrder is the order the code-length code's lengths are sent in.
	codeLenOrder = [numCodeLen]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	// codeLenExtra is the extra bits of code-length symbols 16, 17 and 18.
	codeLenExtra = [numCodeLen]uint8{16: 2, 17: 3, 18: 7}

	// lengthCode maps length-3 to its code minus 257; distCode maps
	// distance-1 below 256 directly and above it by its top bits (>>7).
	lengthCode        [256]uint8
	distLow, distHigh [256]uint8
)

func init() {
	for c := range lengthBase {
		for l := int(lengthBase[c]); l < 256 && (c+1 == len(lengthBase) || l < int(lengthBase[c+1])); l++ {
			lengthCode[l] = uint8(c)
		}
	}
	for c := range distBase {
		end := windowSize
		if c+1 < numDist {
			end = int(distBase[c+1])
		}
		for d := int(distBase[c]); d < end; d++ {
			if d < 256 {
				distLow[d] = uint8(c)
			} else {
				distHigh[d>>7] = uint8(c)
			}
		}
	}
}

func distCode(d int) int {
	if d < 256 {
		return int(distLow[d])
	}
	return int(distHigh[d>>7&0xff])
}

type blockKind uint8

const (
	blockDynamic blockKind = iota
	blockStored
	blockEmpty // a fixed-Huffman block holding end-of-block alone
)

// huffCode is a canonical prefix code: each symbol's length and its code
// bit-reversed, since DEFLATE packs codes from their top bit down.
type huffCode struct {
	length [numLitLen]uint8
	code   [numLitLen]uint16
}

// deflater is the writer's working memory, pooled between encoders: the
// hash table, the token buffer, the histograms, the codes and the bits
// not yet flushed to out.
type deflater struct {
	table    [1 << hashBits]int32
	base     int32
	tokens   []uint32
	litFreq  [numLitLen]uint32
	distFreq [numDist]uint32
	clFreq   [numCodeLen]uint32
	lit      huffCode
	dist     huffCode
	cl       huffCode
	lens     [numLitLen + numDist]uint8  // lit/len then distance code lengths
	rle      [numLitLen + numDist]uint16 // lens run-length coded: symbol | extra<<8
	nrle     int
	// The planned block: its kind and how many of each code's lengths
	// its header sends.
	kind             blockKind
	nlit, ndist, ncl int

	// Scratch of the code builder: leaves sorted by frequency, then the
	// Huffman tree's weights, parents and depths.
	leaves [numLitLen]uint64
	weight [2 * numLitLen]uint64
	parent [2 * numLitLen]int16
	depth  [2 * numLitLen]int16

	bits  uint64
	nbits uint
	out   []byte
}

// deflaters recycles writer state between encoders (Encoder.Close): the
// hash table alone is 128 KiB.
var deflaters = sync.Pool{New: func() any { return new(deflater) }}

// plan tokenizes src, builds the block's codes and returns the size in
// bytes of the DEFLATE stream write will produce: one final block,
// dynamic-Huffman unless stored blocks are smaller, so never more than
// len(src) + 5·⌈len(src)/65535⌉ (2 bytes when src is empty).
func (d *deflater) plan(src []byte) int {
	switch {
	case len(src) == 0:
		d.kind = blockEmpty
		return 2
	case len(src) >= maxDeflate:
		d.kind = blockStored
		return storedSize(len(src))
	}
	d.tokenize(src)
	return d.planTokens(len(src))
}

// planTokens builds the codes for the tokens and histograms in d, which
// code n input bytes, and returns the stream's size as plan does.
func (d *deflater) planTokens(n int) int {
	d.litFreq[endOfBlock] = 1
	d.buildCode(&d.lit, d.litFreq[:], maxCodeBits)
	d.buildCode(&d.dist, d.distFreq[:], maxCodeBits)
	d.nlit, d.ndist = numLitLen, numDist
	for d.lit.length[d.nlit-1] == 0 {
		d.nlit--
	}
	for d.dist.length[d.ndist-1] == 0 {
		d.ndist--
	}
	copy(d.lens[:], d.lit.length[:d.nlit])
	copy(d.lens[d.nlit:], d.dist.length[:d.ndist])
	d.runLengths(d.lens[:d.nlit+d.ndist])
	d.buildCode(&d.cl, d.clFreq[:], maxCLBits)
	d.ncl = numCodeLen
	for d.cl.length[codeLenOrder[d.ncl-1]] == 0 {
		d.ncl--
	}
	d.ncl = max(d.ncl, 4)

	size := uint64(3 + 5 + 5 + 4 + 3*d.ncl)
	for s, f := range d.clFreq {
		size += uint64(f) * uint64(d.cl.length[s]+codeLenExtra[s])
	}
	for s, f := range d.litFreq {
		size += uint64(f) * uint64(d.lit.length[s])
	}
	for c, x := range lengthExtra {
		size += uint64(d.litFreq[257+c]) * uint64(x)
	}
	for c, f := range d.distFreq {
		size += uint64(f) * uint64(d.dist.length[c]+distExtra[c])
	}
	if nb := int((size + 7) / 8); nb <= storedSize(n) {
		d.kind = blockDynamic
		return nb
	}
	d.kind = blockStored
	return storedSize(n)
}

// write appends the stream plan sized for src to dst.
func (d *deflater) write(dst, src []byte) []byte {
	switch d.kind {
	case blockEmpty:
		return append(dst, 0x03, 0x00) // final fixed-Huffman block: end-of-block alone
	case blockStored:
		return appendStored(dst, src)
	}
	d.out = dst
	d.writeBits(1|2<<1, 3) // final, dynamic Huffman
	d.writeBits(uint64(d.nlit-257)|uint64(d.ndist-1)<<5|uint64(d.ncl-4)<<10, 14)
	for _, s := range codeLenOrder[:d.ncl] {
		d.writeBits(uint64(d.cl.length[s]), 3)
	}
	for _, r := range d.rle[:d.nrle] {
		s := r & 0xff
		d.writeBits(uint64(d.cl.code[s])|uint64(r>>8)<<d.cl.length[s], uint(d.cl.length[s]+codeLenExtra[s]))
	}
	d.writeTokens(src)
	d.writeBits(uint64(d.lit.code[endOfBlock]), uint(d.lit.length[endOfBlock]))
	for ; d.nbits > 0; d.nbits -= min(d.nbits, 8) {
		d.out = append(d.out, byte(d.bits))
		d.bits >>= 8
	}
	d.bits = 0
	out := d.out
	d.out = nil
	return out
}

// tokenize fills d.tokens with src's literal runs and matches, and the
// histograms with the symbols they will be written as.
//
//v2v:hotpath
func (d *deflater) tokenize(src []byte) {
	d.tokens = d.tokens[:0]
	clear(d.litFreq[:])
	clear(d.distFreq[:])
	n := len(src)
	if d.base == 0 || int64(d.base)+int64(n) > math.MaxInt32 {
		clear(d.table[:])
		d.base = 1
	}
	base := d.base
	d.base += int32(n)
	lit, i, last := 0, 0, 0 // last: the previous match's distance
	for i+minMatch <= n {
		v := binary.LittleEndian.Uint32(src[i:])
		h := v * hashMul >> (32 - hashBits)
		cand := int(d.table[h] - base)
		d.table[h] = int32(i) + base
		if last > 0 && binary.LittleEndian.Uint32(src[i-last:]) == v {
			cand = i - last
		} else if cand < 0 || i-cand > windowSize || binary.LittleEndian.Uint32(src[cand:]) != v {
			i += 1 + (i-lit)>>skipLog
			continue
		}
		length := minMatch + matchLen(src[cand+minMatch:], src[i+minMatch:min(n, i+maxMatch)])
		if length < minLength {
			i += 1 + (i-lit)>>skipLog
			continue
		}
		d.literals(src[lit:i])
		d.tokens = append(d.tokens, matchBit|uint32(length-3)<<15|uint32(i-cand-1))
		d.litFreq[257+int(lengthCode[length-3])]++
		d.distFreq[distCode(i-cand-1)]++
		for k := max(i+1, i+length-tailIndexed); k < i+length && k+minMatch <= n; k++ {
			d.table[binary.LittleEndian.Uint32(src[k:])*hashMul>>(32-hashBits)] = int32(k) + base
		}
		// The match made [cand, i+length) periodic in its distance, so
		// any multiple of it up to length+distance codes the same bytes;
		// the largest one spares the inflater overlapping copies (a run
		// of zeros at distance 1 is nine memmoves per 258 bytes).
		last = i - cand
		if ext := last * ((length + last) / last); ext <= windowSize {
			last = ext
		}
		i += length
		lit = i
	}
	d.literals(src[lit:])
}

// literals records one literal run.
//
//v2v:hotpath
func (d *deflater) literals(run []byte) {
	if len(run) == 0 {
		return
	}
	d.tokens = append(d.tokens, uint32(len(run)))
	for _, c := range run {
		d.litFreq[c]++
	}
}

// matchLen returns how many leading bytes a and b share, for len(a) >=
// len(b), comparing eight at a time.
//
//v2v:hotpath
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(b); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// writeTokens writes the tokens' codes, reading literal runs from src.
//
//v2v:hotpath
func (d *deflater) writeTokens(src []byte) {
	lit, dist := &d.lit, &d.dist
	pos := 0
	for _, t := range d.tokens {
		if t&matchBit == 0 {
			for _, c := range src[pos : pos+int(t)] {
				d.writeBits(uint64(lit.code[c]), uint(lit.length[c]))
			}
			pos += int(t)
			continue
		}
		l := int(t >> 15 & 0xff)
		lc := int(lengthCode[l])
		ls := 257 + lc
		d.writeBits(uint64(lit.code[ls])|uint64(l-int(lengthBase[lc]))<<lit.length[ls], uint(lit.length[ls]+lengthExtra[lc]))
		dd := int(t & (windowSize - 1))
		dc := distCode(dd)
		d.writeBits(uint64(dist.code[dc])|uint64(dd-int(distBase[dc]))<<dist.length[dc], uint(dist.length[dc]+distExtra[dc]))
		pos += l + 3
	}
}

// writeBits appends the low n <= 32 bits of b to the bit stream, flushing
// whole 32-bit words to d.out.
//
//v2v:hotpath
func (d *deflater) writeBits(b uint64, n uint) {
	d.bits |= b << d.nbits
	d.nbits += n
	if d.nbits >= 32 {
		d.out = binary.LittleEndian.AppendUint32(d.out, uint32(d.bits))
		d.bits >>= 32
		d.nbits -= 32
	}
}

// runLengths codes lens with the code-length alphabet (RFC 1951 §3.2.7)
// into d.rle and counts its symbols in d.clFreq.
func (d *deflater) runLengths(lens []uint8) {
	clear(d.clFreq[:])
	d.nrle = 0
	emit := func(sym, extra int) {
		d.rle[d.nrle] = uint16(sym | extra<<8)
		d.nrle++
		d.clFreq[sym]++
	}
	for i := 0; i < len(lens); {
		v := lens[i]
		run := 1
		for i+run < len(lens) && lens[i+run] == v {
			run++
		}
		i += run
		if v == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(int(v), 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(int(v), 0)
		}
	}
}

// buildCode sets h to a Huffman code for freq whose lengths do not
// exceed maxBits, complete as compress/flate requires: a single used
// symbol gets a one-bit code, and so does symbol 0 when none is used (a
// block without matches sends one distance code, as zlib does). A
// Huffman tree deeper than maxBits is cut down as zlib does: clamp the
// deep leaves to maxBits, then, while the lengths oversubscribe the code
// space, move a leaf from maxBits under the deepest shorter leaf. Lengths
// are then handed out longest first in order of rising frequency.
func (d *deflater) buildCode(h *huffCode, freq []uint32, maxBits int) {
	n := 0
	for s, f := range freq {
		h.length[s] = 0
		if f > 0 {
			d.leaves[n] = uint64(f)<<16 | uint64(s)
			n++
		}
	}
	if n < 2 {
		s := d.leaves[0] & 0xffff
		if n == 0 {
			s = 0
		}
		h.length[s], h.code[s] = 1, 0
		return
	}
	leaves := d.leaves[:n]
	slices.Sort(leaves)

	// Two-queue Huffman: leaves in rising weight, internal nodes made in
	// rising weight after them; each parent has a higher index than its
	// children, so depths fill in from the root down.
	w, par, dep := d.weight[:2*n-1], d.parent[:2*n-1], d.depth[:2*n-1]
	for i, l := range leaves {
		w[i] = l >> 16
	}
	l, q := 0, n
	for next := n; next < 2*n-1; next++ {
		w[next] = 0
		for k := 0; k < 2; k++ {
			m := q
			if l < n && (q >= next || w[l] <= w[q]) {
				m = l
				l++
			} else {
				q++
			}
			w[next] += w[m]
			par[m] = int16(next)
		}
	}
	dep[2*n-2] = 0
	for i := 2*n - 3; i >= 0; i-- {
		dep[i] = dep[par[i]] + 1
	}
	var count [maxCodeBits + 1]int
	for _, dp := range dep[:n] {
		count[min(int(dp), maxBits)]++
	}
	kraft := 0
	for b := 1; b <= maxBits; b++ {
		kraft += count[b] << (maxBits - b)
	}
	for ; kraft > 1<<maxBits; kraft-- {
		b := maxBits - 1
		for count[b] == 0 {
			b--
		}
		count[b]--
		count[b+1] += 2
		count[maxBits]--
	}
	i := 0
	for b := maxBits; b >= 1; b-- {
		for c := count[b]; c > 0; c-- {
			h.length[leaves[i]&0xffff] = uint8(b)
			i++
		}
	}

	// Canonical codes (RFC 1951 §3.2.2), bit-reversed.
	var next [maxCodeBits + 2]uint16
	code := uint16(0)
	for b := 1; b <= maxBits; b++ {
		code = (code + uint16(count[b-1])) << 1
		next[b] = code
	}
	for s := range freq {
		if b := h.length[s]; b > 0 {
			h.code[s] = bits.Reverse16(next[b]) >> (16 - b)
			next[b]++
		}
	}
}

// storedSize is the size of src as stored blocks: five header bytes per
// 65535 bytes of data.
func storedSize(n int) int {
	return n + 5*((n+maxStored-1)/maxStored)
}

// appendStored appends src to dst as stored blocks, the last one final.
func appendStored(dst, src []byte) []byte {
	dst = slices.Grow(dst, storedSize(len(src)))
	for {
		n := min(len(src), maxStored)
		final := byte(0)
		if n == len(src) {
			final = 1
		}
		dst = append(dst, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		dst = append(dst, src[:n]...)
		if src = src[n:]; len(src) == 0 {
			return dst
		}
	}
}
