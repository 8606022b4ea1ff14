package codec

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"v2v/internal/frame"
)

func testConfig() Config {
	return Config{Width: 64, Height: 48, Quality: 1, GOP: 5, Level: 4}
}

// genFrames produces n deterministic frames with temporal coherence (a
// moving gradient) plus a frame-ID stamp.
func genFrames(cfg Config, n int, seed int64) []*frame.Frame {
	rnd := rand.New(rand.NewSource(seed))
	base := byte(rnd.Intn(100))
	out := make([]*frame.Frame, n)
	for i := range out {
		fr := frame.New(cfg.Width, cfg.Height, frame.FormatYUV420)
		p := fr.Planes()
		for y := 0; y < cfg.Height; y++ {
			for x := 0; x < cfg.Width; x++ {
				p[0][y*cfg.Width+x] = byte(int(base) + x + y + i*3)
			}
		}
		for j := range p[1] {
			p[1][j] = byte(100 + i)
			p[2][j] = byte(150 - i)
		}
		out[i] = fr
	}
	return out
}

func encodeAll(t *testing.T, cfg Config, frames []*frame.Frame) []Packet {
	t.Helper()
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	pkts := make([]Packet, len(frames))
	for i, fr := range frames {
		pkts[i], err = enc.Encode(fr)
		if err != nil {
			t.Fatalf("Encode[%d]: %v", i, err)
		}
	}
	return pkts
}

func decodeAll(t *testing.T, cfg Config, pkts []Packet) []*frame.Frame {
	t.Helper()
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	out := make([]*frame.Frame, len(pkts))
	for i, p := range pkts {
		fr, err := dec.Decode(p.Data)
		if err != nil {
			t.Fatalf("Decode[%d]: %v", i, err)
		}
		out[i] = fr
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 48},
		{Width: 64, Height: -2},
		{Width: 63, Height: 48},
		{Width: 64, Height: 47},
		{Width: 64, Height: 48, Quality: 65},
		{Width: 64, Height: 48, Quality: 1, GOP: 1, Level: 10},
	}
	for i, c := range bad {
		if err := c.Defaults().Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("test config invalid: %v", err)
	}
	if _, err := NewEncoder(Config{Width: 10, Height: 11}); err == nil {
		t.Error("NewEncoder should reject odd height")
	}
	if _, err := NewDecoder(Config{Width: 0, Height: 0}); err == nil {
		t.Error("NewDecoder should reject zero dims")
	}
}

func TestDefaults(t *testing.T) {
	d := Config{Width: 2, Height: 2}.Defaults()
	if d.Quality != 1 || d.GOP != 48 || d.Level != 6 {
		t.Errorf("defaults = %+v", d)
	}
}

func TestLosslessRoundTrip(t *testing.T) {
	cfg := testConfig()
	frames := genFrames(cfg, 12, 1)
	pkts := encodeAll(t, cfg, frames)
	decoded := decodeAll(t, cfg, pkts)
	for i := range frames {
		if !frames[i].Equal(decoded[i]) {
			t.Fatalf("frame %d not lossless at Q=1", i)
		}
	}
}

func TestLosslessRandomNoise(t *testing.T) {
	// Worst-case content: pure noise must still round-trip exactly at Q=1.
	cfg := testConfig()
	rnd := rand.New(rand.NewSource(42))
	frames := make([]*frame.Frame, 6)
	for i := range frames {
		fr := frame.New(cfg.Width, cfg.Height, frame.FormatYUV420)
		for j := range fr.Pix {
			fr.Pix[j] = byte(rnd.Intn(256))
		}
		frames[i] = fr
	}
	decoded := decodeAll(t, cfg, encodeAll(t, cfg, frames))
	for i := range frames {
		if !frames[i].Equal(decoded[i]) {
			t.Fatalf("noise frame %d not lossless", i)
		}
	}
}

func TestGOPStructure(t *testing.T) {
	cfg := testConfig() // GOP 5
	pkts := encodeAll(t, cfg, genFrames(cfg, 12, 2))
	for i, p := range pkts {
		wantKey := i%5 == 0
		if p.Key != wantKey {
			t.Errorf("packet %d key = %v, want %v", i, p.Key, wantKey)
		}
		if PacketIsKey(p.Data) != p.Key {
			t.Errorf("packet %d PacketIsKey mismatch", i)
		}
	}
}

func TestForceKeyframe(t *testing.T) {
	cfg := testConfig()
	enc, _ := NewEncoder(cfg)
	frames := genFrames(cfg, 4, 3)
	if p, _ := enc.Encode(frames[0]); !p.Key {
		t.Fatal("first frame must be key")
	}
	if p, _ := enc.Encode(frames[1]); p.Key {
		t.Fatal("second frame should be P")
	}
	enc.ForceKeyframe()
	if p, _ := enc.Encode(frames[2]); !p.Key {
		t.Fatal("forced frame should be key")
	}
	// GOP counter restarts after a forced keyframe.
	if p, _ := enc.Encode(frames[3]); p.Key {
		t.Fatal("frame after forced key should be P")
	}
}

func TestDecodeRequiresKeyframe(t *testing.T) {
	cfg := testConfig()
	pkts := encodeAll(t, cfg, genFrames(cfg, 3, 4))
	dec, _ := NewDecoder(cfg)
	if _, err := dec.Decode(pkts[1].Data); err != ErrNeedKeyframe {
		t.Fatalf("P-first decode err = %v, want ErrNeedKeyframe", err)
	}
	// After the keyframe it works.
	if _, err := dec.Decode(pkts[0].Data); err != nil {
		t.Fatalf("keyframe decode: %v", err)
	}
	if _, err := dec.Decode(pkts[1].Data); err != nil {
		t.Fatalf("P decode: %v", err)
	}
	// Reset drops the reference again.
	dec.Reset()
	if _, err := dec.Decode(pkts[2].Data); err != ErrNeedKeyframe {
		t.Fatalf("post-Reset P decode err = %v", err)
	}
}

func TestPartialGOPDecode(t *testing.T) {
	// Decoding from a mid-stream keyframe (open-at-keyframe) must produce
	// the same frames as decoding from the start — the property smart cuts
	// depend on.
	cfg := testConfig()
	frames := genFrames(cfg, 12, 5)
	pkts := encodeAll(t, cfg, frames)
	full := decodeAll(t, cfg, pkts)

	dec, _ := NewDecoder(cfg)
	for i := 5; i < 10; i++ { // packet 5 is a keyframe (GOP=5)
		fr, err := dec.Decode(pkts[i].Data)
		if err != nil {
			t.Fatalf("partial decode[%d]: %v", i, err)
		}
		if !fr.Equal(full[i]) {
			t.Fatalf("partial decode frame %d differs from full decode", i)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	dec, _ := NewDecoder(testConfig())
	if _, err := dec.Decode(nil); err == nil {
		t.Error("empty packet should error")
	}
	if _, err := dec.Decode([]byte{0x00, 1, 2}); err == nil {
		t.Error("unknown frame type should error")
	}
	if _, err := dec.Decode([]byte{frameTypeI, 1, 2, 3}); err == nil {
		t.Error("truncated flate data should error")
	}
}

func TestEncodeWrongShape(t *testing.T) {
	enc, _ := NewEncoder(testConfig())
	wrong := frame.New(32, 32, frame.FormatYUV420)
	if _, err := enc.Encode(wrong); err == nil {
		t.Error("wrong dimensions should error")
	}
	gray := frame.New(64, 48, frame.FormatGray8)
	if _, err := enc.Encode(gray); err == nil {
		t.Error("wrong format should error")
	}
}

func TestLossyQualityBounds(t *testing.T) {
	cfg := testConfig()
	cfg.Quality = 4
	frames := genFrames(cfg, 10, 6)
	decoded := decodeAll(t, cfg, encodeAll(t, cfg, frames))
	for i := range frames {
		psnr := frame.PSNR(frames[i], decoded[i])
		if psnr < 38 {
			t.Errorf("frame %d PSNR = %.1f at Q=4, want >= 38", i, psnr)
		}
	}
}

func TestLossyCompressesSmaller(t *testing.T) {
	// Noisy content: lossless coding must store the noise, while a coarse
	// quantizer collapses it to few symbols.
	cfg := testConfig()
	rnd := rand.New(rand.NewSource(7))
	frames := make([]*frame.Frame, 8)
	for i := range frames {
		fr := frame.New(cfg.Width, cfg.Height, frame.FormatYUV420)
		for j := range fr.Pix {
			fr.Pix[j] = byte(100 + rnd.Intn(16))
		}
		frames[i] = fr
	}
	lossless := encodeAll(t, cfg, frames)
	cfg.Quality = 16
	lossy := encodeAll(t, cfg, frames)
	var a, b int
	for i := range lossless {
		a += len(lossless[i].Data)
		b += len(lossy[i].Data)
	}
	if b >= a {
		t.Errorf("lossy total %d >= lossless total %d", b, a)
	}
}

func TestStampSurvivesLossyCoding(t *testing.T) {
	cfg := Config{Width: 192, Height: 48, Quality: 8, GOP: 4, Level: 4}
	frames := genFrames(cfg, 8, 8)
	for i, fr := range frames {
		frame.Stamp(fr, uint32(1000+i))
	}
	decoded := decodeAll(t, cfg, encodeAll(t, cfg, frames))
	for i, fr := range decoded {
		id, ok := frame.ReadStamp(fr)
		if !ok || id != uint32(1000+i) {
			t.Fatalf("frame %d stamp = %d,%v after lossy coding", i, id, ok)
		}
	}
}

func TestAllIntra(t *testing.T) {
	cfg := testConfig()
	cfg.GOP = 1
	pkts := encodeAll(t, cfg, genFrames(cfg, 6, 9))
	for i, p := range pkts {
		if !p.Key {
			t.Errorf("all-intra packet %d not key", i)
		}
	}
}

func TestPropertyLosslessRoundTrip(t *testing.T) {
	cfg := Config{Width: 16, Height: 16, Quality: 1, GOP: 3, Level: 1}
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	if err := quick.Check(func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		fr := frame.New(16, 16, frame.FormatYUV420)
		for i := range fr.Pix {
			fr.Pix[i] = byte(rnd.Intn(256))
		}
		pkt, err := enc.Encode(fr)
		if err != nil {
			return false
		}
		got, err := dec.Decode(pkt.Data)
		return err == nil && got.Equal(fr)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLossyErrorBounded(t *testing.T) {
	// Reconstruction error per pixel is bounded by the quantizer step for
	// P-frames against a stable reference.
	for _, q := range []int{2, 4, 8} {
		cfg := Config{Width: 16, Height: 16, Quality: q, GOP: 1, Level: 1}
		enc, _ := NewEncoder(cfg)
		dec, _ := NewDecoder(cfg)
		fr := frame.New(16, 16, frame.FormatYUV420)
		rnd := rand.New(rand.NewSource(int64(q)))
		// Smooth content keeps intra prediction errors small enough that
		// quantized residuals don't clip.
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				fr.Planes()[0][y*16+x] = byte(60 + x + y + rnd.Intn(3))
			}
		}
		pkt, _ := enc.Encode(fr)
		got, err := dec.Decode(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fr.Pix {
			d := int(fr.Pix[i]) - int(got.Pix[i])
			if d < 0 {
				d = -d
			}
			if d > q {
				t.Fatalf("q=%d pixel %d error %d exceeds step", q, i, d)
			}
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	cfg := Config{Width: 384, Height: 216, Quality: 1, GOP: 24, Level: 4}
	frames := genFramesB(cfg, 8)
	enc, _ := NewEncoder(cfg)
	b.SetBytes(int64(frame.FormatYUV420.Size(cfg.Width, cfg.Height)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) { benchDecode(b, nil) }

// BenchmarkDecodePooled attaches a frame pool and releases every frame —
// the way media.Reader drives the decoder.
func BenchmarkDecodePooled(b *testing.B) { benchDecode(b, frame.NewPool()) }

func benchDecode(b *testing.B, pool *frame.Pool) {
	cfg := Config{Width: 384, Height: 216, Quality: 1, GOP: 24, Level: 4}
	frames := genFramesB(cfg, 8)
	enc, _ := NewEncoder(cfg)
	pkts := make([]Packet, len(frames))
	for i, fr := range frames {
		pkts[i], _ = enc.Encode(fr)
	}
	dec, _ := NewDecoder(cfg)
	dec.SetFramePool(pool)
	b.SetBytes(int64(frame.FormatYUV420.Size(cfg.Width, cfg.Height)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(pkts) == 0 {
			dec.Reset()
		}
		fr, err := dec.Decode(pkts[i%len(pkts)].Data)
		if err != nil {
			b.Fatal(err)
		}
		fr.Release() // no-op without a pool
	}
}

func genFramesB(cfg Config, n int) []*frame.Frame {
	out := make([]*frame.Frame, n)
	for i := range out {
		fr := frame.New(cfg.Width, cfg.Height, frame.FormatYUV420)
		p := fr.Planes()
		for y := 0; y < cfg.Height; y++ {
			for x := 0; x < cfg.Width; x++ {
				p[0][y*cfg.Width+x] = byte(x ^ y + i*5)
			}
		}
		out[i] = fr
	}
	return out
}

func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	// Random bytes must yield errors, not panics or hangs.
	cfg := Config{Width: 32, Height: 32, Quality: 1, GOP: 4, Level: 1}
	dec, _ := NewDecoder(cfg)
	rnd := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := rnd.Intn(200)
		data := make([]byte, n)
		rnd.Read(data)
		if trial%3 == 0 && n > 0 {
			data[0] = frameTypeI // valid type byte, garbage body
		}
		dec.Decode(data) // must not panic; error or (rarely) junk frame
	}
}

func TestDecodeCorruptedValidPacket(t *testing.T) {
	cfg := testConfig()
	pkts := encodeAll(t, cfg, genFrames(cfg, 2, 21))
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		dec, _ := NewDecoder(cfg)
		data := append([]byte(nil), pkts[0].Data...)
		data[1+rnd.Intn(len(data)-1)] ^= byte(1 + rnd.Intn(255))
		dec.Decode(data) // corrupt flate stream: error or wrong pixels, no panic
	}
}

func TestRecycleLosslessRoundTrip(t *testing.T) {
	// Recycling each packet after it is decoded must not corrupt the
	// stream: the next Encode reuses the buffer, not the decoded bytes.
	cfg := testConfig()
	frames := genFrames(cfg, 12, 9)
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	for i, fr := range frames {
		pkt, err := enc.Encode(fr)
		if err != nil {
			t.Fatalf("Encode[%d]: %v", i, err)
		}
		got, err := dec.Decode(pkt.Data)
		enc.Recycle(pkt)
		if err != nil {
			t.Fatalf("Decode[%d]: %v", i, err)
		}
		if !fr.Equal(got) {
			t.Fatalf("frame %d not lossless with recycled packet buffers", i)
		}
	}
}

func TestEncodeRecycleSteadyStateAllocs(t *testing.T) {
	// With the output packet recycled, the steady-state encode loop must
	// be allocation-free: reconstructions ping-pong, the flate writer and
	// scratch buffers are reused, and the packet bytes come from the
	// recycle slot.
	cfg := testConfig()
	frames := genFrames(cfg, 10, 4)
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	i := 0
	encodeOne := func() {
		pkt, err := enc.Encode(frames[i%len(frames)])
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		enc.Recycle(pkt)
		i++
	}
	for warm := 0; warm < 3*len(frames); warm++ {
		encodeOne()
	}
	if allocs := testing.AllocsPerRun(50, encodeOne); allocs > 0 {
		t.Errorf("steady-state Encode+Recycle allocates %.1f per packet, want 0", allocs)
	}
}

// TestEncoderCloseRecyclesWriter: an encoder built after another's Close
// takes over its DEFLATE writer state from the one pool, and what it
// writes is what a first-ever encoder writes. Level does not change the
// bytes, so encoders of two levels share the pool. Close twice and Encode
// after Close are both fine. Concurrent encoders (shard workers) trade
// writer state through the pool; run under -race.
func TestEncoderCloseRecyclesWriter(t *testing.T) {
	frames := genFrames(testConfig(), 7, 11)
	want := encodeAll(t, testConfig(), frames)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				cfg := testConfig()
				cfg.Level = []int{2, 4}[(g+round)%2]
				enc, err := NewEncoder(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				for i, fr := range frames {
					if i == 3 {
						enc.Close() // mid-stream: the next Encode takes writer state again
					}
					pkt, err := enc.Encode(fr)
					if err != nil {
						t.Error(err)
						return
					}
					if w := want[i]; pkt.Key != w.Key || !bytes.Equal(pkt.Data, w.Data) {
						t.Errorf("level %d frame %d: bytes differ with recycled writer state", cfg.Level, i)
					}
				}
				enc.Close()
				enc.Close()
			}
		}(g)
	}
	wg.Wait()
}

// TestNewEncoderAllocatesNothingBig: a sink builds its encoder up front
// and may never encode (a pure copy, a result-cache hit); until the first
// Encode the encoder holds no writer state and no residual buffer.
func TestNewEncoderAllocatesNothingBig(t *testing.T) {
	enc, err := NewEncoder(Config{Width: 384, Height: 216, Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	if enc.zw != nil || enc.resid != nil {
		t.Error("NewEncoder took the DEFLATE writer state or residual buffer before any Encode")
	}
	enc.Close() // nothing to return; must not panic
}
