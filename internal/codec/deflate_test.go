package codec

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"testing"
)

// deflateBytes runs the writer the way Encode does: plan, then write into
// a buffer grown once to the planned size.
func deflateBytes(t testing.TB, d *deflater, src []byte) []byte {
	t.Helper()
	n := d.plan(src)
	out := d.write(make([]byte, 0, n), src)
	if len(out) != n {
		t.Fatalf("%d input bytes: plan said %d output bytes, write gave %d", len(src), n, len(out))
	}
	return out
}

func inflate(t testing.TB, b []byte) []byte {
	t.Helper()
	out, err := io.ReadAll(flate.NewReader(bytes.NewReader(b)))
	if err != nil {
		t.Fatalf("inflate: %v", err)
	}
	return out
}

// storedBound is the size of n bytes as stored blocks, plus the two bytes
// of the empty stream.
func storedBound(n int) int {
	return n + 5*((n+maxStored-1)/maxStored) + 2
}

// TestFrozenPacketsInflateToResidual: every packet of the frozen clip,
// past its frame-type byte, inflates with compress/flate to exactly the
// residual the encoder computed for it.
func TestFrozenPacketsInflateToResidual(t *testing.T) {
	for _, q := range []int{1, 4} {
		enc, err := NewEncoder(Config{Width: 70, Height: 50, Quality: q, GOP: 3, Level: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, fr := range frozenClip() {
			pkt, err := enc.Encode(fr)
			if err != nil {
				t.Fatal(err)
			}
			if got := inflate(t, pkt.Data[1:]); !bytes.Equal(got, enc.resid) {
				t.Errorf("quality %d packet %d: inflates to %d bytes, not the %d-byte residual", q, i, len(got), len(enc.resid))
			}
		}
	}
}

// TestDeflateEdgeCases round-trips inputs at the writer's boundaries: the
// empty input, inputs shorter than a hash window or a minimum match,
// stored-block sizes either side of 65535 (noise), and runs longer than
// the window.
func TestDeflateEdgeCases(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	noise := func(n int) []byte {
		b := make([]byte, n)
		rnd.Read(b)
		return b
	}
	cases := map[string][]byte{
		"empty":        {},
		"one":          {42},
		"three":        {1, 2, 3},
		"seven zeros":  make([]byte, 7),
		"eight zeros":  make([]byte, 8),
		"noise 65535":  noise(maxStored),
		"noise 65536":  noise(maxStored + 1),
		"noise 131070": noise(2 * maxStored),
		"zeros 200000": make([]byte, 200000),
		"noise+zeros":  append(noise(40000), make([]byte, 40000)...),
	}
	d := new(deflater)
	for name, src := range cases {
		out := deflateBytes(t, d, src)
		if !bytes.Equal(inflate(t, out), src) {
			t.Errorf("%s: round trip differs", name)
		}
		if len(out) > storedBound(len(src)) {
			t.Errorf("%s: %d bytes exceed the stored bound %d", name, len(out), storedBound(len(src)))
		}
	}
}

// FuzzEncodeDeflate takes arbitrary bytes as a residual: compress/flate
// must inflate the writer's output back to them exactly, the output must
// be no larger than stored blocks, and a writer that has compressed every
// earlier input must write the same bytes as a new one.
func FuzzEncodeDeflate(f *testing.F) {
	f.Add(make([]byte, 300))
	noise := make([]byte, 300)
	rand.New(rand.NewSource(1)).Read(noise)
	f.Add(noise)
	stripes := make([]byte, 300)
	for i := range stripes {
		stripes[i] = byte(i / 16 % 2 * 255)
	}
	f.Add(stripes)
	cfg := Config{Width: 16, Height: 16, Quality: 1, GOP: 3, Level: 2}
	enc, err := NewEncoder(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range genFrames(cfg, 2, 1) {
		if _, err := enc.Encode(fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(append([]byte(nil), enc.resid...)) // a real P-frame residual

	long := new(deflater)
	f.Fuzz(func(t *testing.T, src []byte) {
		out := deflateBytes(t, long, src)
		if len(out) > storedBound(len(src)) {
			t.Fatalf("%d input bytes: %d output bytes exceed the stored bound %d", len(src), len(out), storedBound(len(src)))
		}
		if got := inflate(t, out); !bytes.Equal(got, src) {
			t.Fatalf("%d input bytes: inflated %d bytes that differ", len(src), len(got))
		}
		if fresh := deflateBytes(t, new(deflater), src); !bytes.Equal(fresh, out) {
			t.Fatalf("%d input bytes: a recycled writer's output differs from a new one's", len(src))
		}
	})
}

// fibonacci returns n Fibonacci numbers from 1, 1: as frequencies they
// make the deepest Huffman tree n symbols can have, n-1 levels.
func fibonacci(n int) []uint32 {
	f := make([]uint32, n)
	for i := range f {
		f[i] = 1
		if i >= 2 {
			f[i] = f[i-1] + f[i-2]
		}
	}
	return f
}

// checkCode holds a length-limited code to what the inflater needs and
// optimality implies: no length above maxBits, a complete code (Kraft sum
// exactly 1), and no symbol with a longer code than a rarer one.
func checkCode(t *testing.T, name string, h *huffCode, freq []uint32, maxBits int) {
	t.Helper()
	kraft, deepest := 0, 0
	for s, f := range freq {
		l := int(h.length[s])
		if (f > 0) != (l > 0) {
			t.Fatalf("%s: symbol %d has frequency %d and length %d", name, s, f, l)
		}
		if l > 0 {
			kraft += 1 << (maxBits - l)
			deepest = max(deepest, l)
		}
		for s2, f2 := range freq {
			if f2 > 0 && f2 < f && h.length[s2] < h.length[s] {
				t.Fatalf("%s: symbol %d (freq %d) has a longer code than symbol %d (freq %d)", name, s, f, s2, f2)
			}
		}
	}
	if deepest != maxBits {
		t.Errorf("%s: deepest code %d bits, want the %d-bit limit", name, deepest, maxBits)
	}
	if kraft != 1<<maxBits {
		t.Errorf("%s: Kraft sum %d/%d, want a complete code", name, kraft, 1<<maxBits)
	}
}

// TestHuffmanLengthLimits: Fibonacci frequencies push the Huffman trees
// far past DEFLATE's limits — 25 levels for the literal alphabet, 18 for
// the code-length alphabet — so both cuts (15 and 7 bits) run. The
// literal case goes through a whole block: a token stream whose literal
// histogram is Fibonacci, written and inflated by compress/flate.
func TestHuffmanLengthLimits(t *testing.T) {
	d := new(deflater)
	cl := fibonacci(numCodeLen)
	d.buildCode(&d.cl, cl, maxCLBits)
	checkCode(t, "code lengths", &d.cl, cl, maxCLBits)

	lit := fibonacci(26)[1:] // with end-of-block's count of 1, Fibonacci again
	var src []byte
	for s, f := range lit {
		src = append(src, bytes.Repeat([]byte{byte(s)}, int(f))...)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
	d.tokens = append(d.tokens[:0], uint32(len(src)))
	clear(d.litFreq[:])
	clear(d.distFreq[:])
	copy(d.litFreq[:], lit)
	n := d.planTokens(len(src))
	if d.kind != blockDynamic {
		t.Fatalf("planned block kind %d, want dynamic", d.kind)
	}
	checkCode(t, "literals", &d.lit, d.litFreq[:], maxCodeBits)
	out := d.write(nil, src)
	if len(out) != n {
		t.Errorf("plan said %d bytes, write gave %d", n, len(out))
	}
	if !bytes.Equal(inflate(t, out), src) {
		t.Error("Fibonacci block does not round-trip")
	}
}
