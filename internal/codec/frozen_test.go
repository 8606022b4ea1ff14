package codec

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v2v/internal/frame"
)

// frozenClip is the fixed input of TestFrozenBitstream: five 70x50 frames
// (luma rows end in a six-byte tail, chroma planes are 35 wide) of a moving
// gradient with noise and hard edges, so consecutive frames are correlated
// but no residual is trivially zero.
func frozenClip() []*frame.Frame {
	const w, h = 70, 50
	rnd := rand.New(rand.NewSource(20240917))
	frames := make([]*frame.Frame, 5)
	for i := range frames {
		fr := frame.New(w, h, frame.FormatYUV420)
		p := fr.Planes()
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := 2*x + 3*y + 7*i + rnd.Intn(4)
				if (x/10+y/10+i)%5 == 0 {
					v = 255 * ((x + y) % 2)
				}
				p[0][y*w+x] = byte(v)
			}
		}
		for j := range p[1] {
			p[1][j] = byte(128 + j%35 - 3*i + rnd.Intn(2))
			p[2][j] = byte(64 + j/35 + 5*i)
		}
		frames[i] = fr
	}
	return frames
}

var updateFrozen = flag.Bool("update-frozen", false, "rewrite testdata/frozen_*.sha256 from the current encoder")

// TestFrozenBitstream pins GV1's output bytes: the packets the encoder
// produces for a fixed clip must hash to the digests committed under
// testdata/, which were generated before the plane loops were rewritten.
// Any change to prediction, quantization, residual layout or DEFLATE
// framing shows up here as a digest mismatch.
func TestFrozenBitstream(t *testing.T) {
	clip := frozenClip()
	for _, q := range []int{1, 4} {
		cfg := Config{Width: 70, Height: 50, Quality: q, GOP: 3, Level: 2}
		var lines []string
		for i, pkt := range encodeAll(t, cfg, clip) {
			sum := sha256.Sum256(pkt.Data)
			lines = append(lines, fmt.Sprintf("%d %c %d %s", i, pkt.Data[0], len(pkt.Data), hex.EncodeToString(sum[:])))
		}
		got := strings.Join(lines, "\n") + "\n"
		path := filepath.Join("testdata", fmt.Sprintf("frozen_q%d_gop3.sha256", q))
		if *updateFrozen {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("quality %d: bitstream changed\n got:\n%s want:\n%s", q, got, want)
		}
	}
}
