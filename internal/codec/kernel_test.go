package codec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"v2v/internal/frame"
)

// The byte-at-a-time loops the lane kernels replaced, kept as the oracle.

func refCode(cur, pred, q int) (resid, recon byte) {
	if q == 1 {
		b := byte(cur - pred)
		return b, byte(pred + int(b))
	}
	return quantize(cur, pred, q)
}

func refIntraPlane(src, recon, resid []byte, w, h, q int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			var pred int
			switch {
			case x > 0:
				pred = int(recon[i-1])
			case y > 0:
				pred = int(recon[i-w])
			default:
				pred = 128
			}
			resid[i], recon[i] = refCode(int(src[i]), pred, q)
		}
	}
}

func refDecodeIntraPlane(resid, out []byte, w, h, q int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			var pred int
			switch {
			case x > 0:
				pred = int(out[i-1])
			case y > 0:
				pred = int(out[i-w])
			default:
				pred = 128
			}
			if q == 1 {
				out[i] = byte(pred + int(resid[i]))
			} else {
				out[i] = clamp8(pred + unzigzag(resid[i])*q)
			}
		}
	}
}

// laneCases yields operand pairs of length n: random bytes, then every
// pairing of the carry/borrow boundary values at every position of a word.
func laneCases(n int, rnd *rand.Rand) [][2][]byte {
	a, b := make([]byte, n), make([]byte, n)
	rnd.Read(a)
	rnd.Read(b)
	cases := [][2][]byte{{a, b}}
	edge := []byte{0x00, 0x7f, 0x80, 0xff}
	for _, x := range edge {
		for _, y := range edge {
			a, b := make([]byte, n), make([]byte, n)
			for i := range a {
				// The pair under test alternates with its mirror so
				// neighbouring lanes carry and borrow differently.
				if i%2 == 0 {
					a[i], b[i] = x, y
				} else {
					a[i], b[i] = y, x
				}
			}
			cases = append(cases, [2][]byte{a, b})
		}
	}
	return cases
}

func TestLaneKernelsMatchReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for n := 0; n <= 40; n++ {
		for ci, c := range laneCases(n, rnd) {
			a, b := c[0], c[1]
			sum, diff := bytes.Clone(a), make([]byte, n)
			addInPlace(sum, b)
			subBytes(diff, a, b)
			for i := 0; i < n; i++ {
				if sum[i] != a[i]+b[i] {
					t.Fatalf("addInPlace n=%d case %d: [%d] %#02x+%#02x = %#02x, want %#02x", n, ci, i, a[i], b[i], sum[i], a[i]+b[i])
				}
				if diff[i] != a[i]-b[i] {
					t.Fatalf("subBytes n=%d case %d: [%d] %#02x-%#02x = %#02x, want %#02x", n, ci, i, a[i], b[i], diff[i], a[i]-b[i])
				}
			}
		}
	}
}

func TestIntraPlanesMatchReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	dims := [][2]int{{1, 1}, {1, 5}, {2, 2}, {7, 3}, {8, 4}, {9, 9}, {35, 25}, {70, 50}, {192, 108}}
	for _, d := range dims {
		w, h := d[0], d[1]
		for _, q := range []int{1, 2, 4, 16, 64} {
			for _, content := range []string{"noise", "edges", "smooth"} {
				src := make([]byte, w*h)
				switch content {
				case "noise":
					rnd.Read(src)
				case "edges":
					edge := []byte{0x00, 0x7f, 0x80, 0xff}
					for i := range src {
						src[i] = edge[rnd.Intn(len(edge))]
					}
				case "smooth":
					for i := range src {
						src[i] = byte(i%w + i/w + rnd.Intn(3))
					}
				}
				name := fmt.Sprintf("%dx%d q=%d %s", w, h, q, content)
				wantResid, wantRecon := make([]byte, w*h), make([]byte, w*h)
				refIntraPlane(src, wantRecon, wantResid, w, h, q)
				resid, recon := make([]byte, w*h), make([]byte, w*h)
				if q == 1 {
					intraResidual(resid, src, w, h)
					copy(recon, src)
				} else {
					intraPlaneLossy(src, recon, resid, w, h, q)
				}
				if !bytes.Equal(resid, wantResid) {
					t.Fatalf("%s: encoder residual differs from reference", name)
				}
				if !bytes.Equal(recon, wantRecon) {
					t.Fatalf("%s: encoder reconstruction differs from reference", name)
				}
				wantOut, out := make([]byte, w*h), make([]byte, w*h)
				refDecodeIntraPlane(resid, wantOut, w, h, q)
				if q == 1 {
					intraReconstruct(resid, out, w, h)
				} else {
					intraReconstructLossy(resid, out, w, h, q)
				}
				if !bytes.Equal(out, wantOut) {
					t.Fatalf("%s: decoder output differs from reference", name)
				}
				if !bytes.Equal(out, recon) {
					t.Fatalf("%s: decoder output differs from the encoder's reconstruction", name)
				}
			}
		}
	}
}

// TestDecoderSurvivesBadPackets feeds one decoder a truncated packet,
// packets whose payload does not inflate to exactly one frame's residual,
// a packet with a flipped DEFLATE byte, then a clean GOP. The inflater
// outlives each packet, so the error state of a bad one must not leak
// into the next: concealment mode keeps decoding through the same
// decoder after a damaged packet.
func TestDecoderSurvivesBadPackets(t *testing.T) {
	cfg := testConfig()
	frames := genFrames(cfg, 5, 31) // one GOP: I P P P P
	pkts := encodeAll(t, cfg, frames)
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}

	truncated := pkts[0].Data[:len(pkts[0].Data)/2]
	if _, err := dec.Decode(truncated); !errors.Is(err, ErrUndecodable) {
		t.Fatalf("truncated packet: err = %v, want ErrUndecodable", err)
	}
	// Mis-sized payloads: the last byte (and with it the end-of-block
	// code) dropped, junk after the stream, and a stream one frame and
	// 1000 bytes long.
	long := append([]byte{frameTypeI}, deflateBytes(t, new(deflater), make([]byte, frame.FormatYUV420.Size(cfg.Width, cfg.Height)+1000))...)
	for i, p := range pkts {
		if i > 0 {
			if _, err := dec.Decode(pkts[i-1].Data); err != nil {
				t.Fatalf("clean packet %d: %v", i-1, err)
			}
		}
		bad := map[string][]byte{
			"last byte dropped":  p.Data[:len(p.Data)-1],
			"junk appended":      append(bytes.Clone(p.Data), 0x5a, 0xa5),
			"a frame and 1000 B": long,
		}
		for name, data := range bad {
			if _, err := dec.Decode(data); !errors.Is(err, ErrUndecodable) {
				t.Fatalf("packet %d, %s: err = %v, want ErrUndecodable", i, name, err)
			}
		}
	}
	dec.Reset()
	// A flipped byte can leave a stream that still inflates (to wrong
	// pixels); take the first flip the inflater rejects.
	flippedErr := error(nil)
	for off := 1; off < len(pkts[0].Data) && flippedErr == nil; off++ {
		flipped := append([]byte(nil), pkts[0].Data...)
		flipped[off] ^= 0xff
		probe, _ := NewDecoder(cfg)
		if _, err := probe.Decode(flipped); err != nil {
			_, flippedErr = dec.Decode(flipped)
		}
	}
	if !errors.Is(flippedErr, ErrUndecodable) {
		t.Fatalf("flipped packet: err = %v, want ErrUndecodable", flippedErr)
	}
	for i, p := range pkts {
		got, err := dec.Decode(p.Data)
		if err != nil {
			t.Fatalf("clean packet %d after bad packets: %v", i, err)
		}
		if !got.Equal(frames[i]) {
			t.Fatalf("clean packet %d after bad packets: frame differs", i)
		}
	}
	// And mid-GOP: a bad P-packet leaves the reference in place.
	if _, err := dec.Decode(pkts[2].Data[:3]); !errors.Is(err, ErrUndecodable) {
		t.Fatalf("truncated P packet: err = %v, want ErrUndecodable", err)
	}
	dec.Reset()
	for i := 0; i < 3; i++ {
		got, err := dec.Decode(pkts[i].Data)
		if err != nil || !got.Equal(frames[i]) {
			t.Fatalf("packet %d after a bad P packet: err=%v", i, err)
		}
	}
}

// TestDecodeSteadyStateAllocs: with a frame pool attached and every frame
// released, Decode and Advance allocate nothing of their own — no tables,
// no frame — on a small clip and on a 384x216 one whose dynamic blocks
// have codes longer than the inflater's root table.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	for _, cfg := range []Config{testConfig(), {Width: 384, Height: 216, Quality: 1, GOP: 10, Level: 2}} {
		frames := genFrames(cfg, 10, 4)
		rnd := rand.New(rand.NewSource(8))
		for _, fr := range frames[1:] {
			// Sparse, skewed changes give the residual a wide alphabet
			// of rare bytes: long literal codes.
			for k := 0; k < len(fr.Pix)/16; k++ {
				fr.Pix[rnd.Intn(len(fr.Pix))] += byte(rnd.NormFloat64() * 20)
			}
		}
		pkts := encodeAll(t, cfg, frames)
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dec.SetFramePool(frame.NewPool())
		i := 0
		decodeOne := func() {
			fr, err := dec.Decode(pkts[i%len(pkts)].Data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			fr.Release()
			i++
		}
		advanceOne := func() {
			if err := dec.Advance(pkts[i%len(pkts)].Data); err != nil {
				t.Fatalf("Advance: %v", err)
			}
			i++
		}
		for warm := 0; warm < 2*len(pkts); warm++ {
			decodeOne()
			advanceOne()
		}
		if cfg.Width == 384 {
			var f inflater
			last := pkts[len(pkts)-1].Data
			if err := f.inflate(last[1:], make([]byte, len(frames[0].Pix))); err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(f.lit[:1<<litRoot], func(e uint32) bool { return e&entLink != 0 }) {
				t.Errorf("%dx%d: the last packet has no code longer than %d bits", cfg.Width, cfg.Height, litRoot)
			}
		}
		// < 1 tolerates a sync.Pool entry dropped by a mid-run GC.
		if allocs := testing.AllocsPerRun(100, decodeOne); allocs >= 1 {
			t.Errorf("%dx%d: steady-state pooled Decode allocates %.2f per packet, want 0", cfg.Width, cfg.Height, allocs)
		}
		if allocs := testing.AllocsPerRun(100, advanceOne); allocs >= 1 {
			t.Errorf("%dx%d: steady-state Advance allocates %.2f per packet, want 0", cfg.Width, cfg.Height, allocs)
		}
		dec.Reset()
	}
}

// TestAdvanceMatchesDecode: rolling forward with Advance and then
// decoding gives the frame decoding every packet gives, lossless and
// lossy, whether the reference is held by a caller (Decode, Reference),
// was released at once (so the next packet reconstructs it in place), or
// was never handed out; and a frame a caller holds is never written.
func TestAdvanceMatchesDecode(t *testing.T) {
	for _, q := range []int{1, 4} {
		cfg := Config{Width: 64, Height: 48, Quality: q, GOP: 6, Level: 2}
		pkts := encodeAll(t, cfg, genFrames(cfg, 12, 3))
		want := decodeAll(t, cfg, pkts)
		for target := range pkts {
			dec, err := NewDecoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dec.SetFramePool(frame.NewPool())
			held := map[int]*frame.Frame{}
			for i, p := range pkts[:target] {
				switch i % 4 {
				case 0:
					err = dec.Advance(p.Data)
				case 1:
					var fr *frame.Frame
					fr, err = dec.Decode(p.Data)
					held[i] = fr
				case 2:
					err = dec.Advance(p.Data)
					held[i] = dec.Reference()
				default:
					var fr *frame.Frame
					if fr, err = dec.Decode(p.Data); err == nil {
						if !fr.Equal(want[i]) {
							t.Errorf("q%d: frame %d differs", q, i)
						}
						fr.Release()
					}
				}
				if err != nil {
					t.Fatalf("q%d packet %d: %v", q, i, err)
				}
			}
			got, err := dec.Decode(pkts[target].Data)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want[target]) {
				t.Errorf("q%d: frame %d after a roll-forward differs", q, target)
			}
			for i, fr := range held {
				if !fr.Equal(want[i]) {
					t.Errorf("q%d: frame %d, handed out before frame %d, was written afterwards", q, i, target)
				}
				fr.Release()
			}
			got.Release()
			dec.Reset()
		}
	}
}

func BenchmarkAddInPlace(b *testing.B) {
	n := frame.FormatYUV420.Size(384, 216)
	x, y := make([]byte, n), make([]byte, n)
	rand.New(rand.NewSource(1)).Read(x)
	rand.New(rand.NewSource(2)).Read(y)
	b.SetBytes(int64(n))
	for i := 0; i < b.N; i++ {
		addInPlace(x, y)
	}
}

func BenchmarkIntraReconstruct(b *testing.B) {
	w, h := 384, 216
	resid, out := make([]byte, w*h), make([]byte, w*h)
	rand.New(rand.NewSource(1)).Read(resid)
	b.SetBytes(int64(w * h))
	for i := 0; i < b.N; i++ {
		intraReconstruct(resid, out, w, h)
	}
}
