package codec

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"testing"
)

// flateOracle inflates stream with compress/flate and reports whether it
// is one complete stream of exactly n bytes with nothing after it: the
// streams the inflater must accept, and the only ones.
func flateOracle(stream []byte, n int) ([]byte, bool) {
	br := bytes.NewReader(stream)
	out, err := io.ReadAll(io.LimitReader(flate.NewReader(br), int64(n)+1))
	return out, err == nil && len(out) == n && br.Len() == 0
}

// oracleInputs are the residual-shaped inputs, of cfg's frame size, the
// compress/flate streams of the tests and the fuzz corpus are made from:
// a real P-frame residual, zeros, and noise.
func oracleInputs(t testing.TB, cfg Config) map[string][]byte {
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range genFrames(cfg, 2, 9) {
		if _, err := enc.Encode(fr); err != nil {
			t.Fatal(err)
		}
	}
	noise := make([]byte, len(enc.resid))
	rand.New(rand.NewSource(5)).Read(noise)
	return map[string][]byte{
		"p-residual": bytes.Clone(enc.resid),
		"zeros":      make([]byte, len(enc.resid)),
		"noise":      noise,
	}
}

// flateLevels are compress/flate's writer levels the tests cover:
// Huffman-only, stored, and fixed and dynamic blocks, one or many per
// stream; Close ends each with an empty final stored block.
var flateLevels = []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, 2, flate.DefaultCompression, flate.BestCompression}

func flateStream(t testing.TB, src []byte, level int) []byte {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInflateReadsCompressFlateLevels: every stream compress/flate's
// writer produces at the covered levels inflates to its input, as does
// GV1's own writer's.
func TestInflateReadsCompressFlateLevels(t *testing.T) {
	var f inflater
	for name, src := range oracleInputs(t, testConfig()) {
		streams := map[int][]byte{}
		for _, level := range flateLevels {
			streams[level] = flateStream(t, src, level)
		}
		streams[100] = deflateBytes(t, new(deflater), src)
		for level, stream := range streams {
			out := make([]byte, len(src))
			if err := f.inflate(stream, out); err != nil {
				t.Errorf("%s, level %d: %v", name, level, err)
			} else if !bytes.Equal(out, src) {
				t.Errorf("%s, level %d: inflates to other bytes", name, level)
			}
		}
	}
}

// TestInflateRejectsMisSizedStreams: a stream must end its final block
// exactly at the end of the output and of the input.
func TestInflateRejectsMisSizedStreams(t *testing.T) {
	var f inflater
	src := oracleInputs(t, testConfig())["p-residual"]
	for _, level := range flateLevels {
		stream := flateStream(t, src, level)
		cases := map[string]struct {
			in   []byte
			size int
		}{
			"short output":    {stream, len(src) - 1},
			"long output":     {stream, len(src) + 1},
			"last byte gone":  {stream[:len(stream)-1], len(src)},
			"trailing byte":   {append(bytes.Clone(stream), 0), len(src)},
			"empty input":     {nil, len(src)},
			"two bytes extra": {append(bytes.Clone(stream), 0xa5, 0x5a), len(src)},
		}
		for name, c := range cases {
			if err := f.inflate(c.in, make([]byte, c.size)); err == nil {
				t.Errorf("level %d, %s: accepted", level, name)
			}
		}
	}
}

// FuzzInflate holds the inflater to compress/flate on arbitrary input:
// what it accepts, compress/flate inflates to the same bytes; and every
// complete stream compress/flate inflates to exactly the requested size,
// with no byte after it, it accepts.
func FuzzInflate(f *testing.F) {
	// Small frames keep the corpus small, so the fuzzer's minimizing of
	// what it finds stays quick.
	for _, src := range oracleInputs(f, Config{Width: 16, Height: 16, Quality: 1, GOP: 3}) {
		for _, level := range flateLevels {
			f.Add(flateStream(f, src, level), uint32(len(src)))
		}
		f.Add(deflateBytes(f, new(deflater), src), uint32(len(src)))
	}
	f.Add([]byte{0x03, 0x00}, uint32(0))
	f.Add([]byte{0x01, 0x00, 0x00, 0xff, 0xff}, uint32(0))
	var inf inflater
	f.Fuzz(func(t *testing.T, stream []byte, size uint32) {
		n := int(size % (1 << 17))
		out := make([]byte, n)
		err := inf.inflate(stream, out)
		want, ok := flateOracle(stream, n)
		switch {
		case err == nil && !ok:
			t.Fatalf("accepted a stream compress/flate does not inflate to exactly %d bytes", n)
		case err == nil && !bytes.Equal(out, want):
			t.Fatal("inflates to other bytes than compress/flate")
		case err != nil && ok:
			t.Fatalf("rejected a stream compress/flate inflates to exactly %d bytes: %v", n, err)
		}
	})
}
