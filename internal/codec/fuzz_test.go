package codec

import "testing"

// FuzzDecode throws arbitrary bytes at one long-lived decoder — the
// inflater, its residual and the prediction frame all outlive each packet —
// and then requires a valid GOP to round-trip through the same decoder.
// The properties: damaged input yields an error or junk pixels, never a
// panic; and nothing a bad packet leaves behind can spoil a good one.
func FuzzDecode(f *testing.F) {
	cfg := Config{Width: 16, Height: 16, Quality: 1, GOP: 3, Level: 2}
	enc, err := NewEncoder(cfg)
	if err != nil {
		f.Fatal(err)
	}
	frames := genFrames(cfg, 3, 1)
	var pkts [][]byte
	for _, fr := range frames {
		p, err := enc.Encode(fr)
		if err != nil {
			f.Fatal(err)
		}
		pkts = append(pkts, p.Data)
	}
	f.Add([]byte{})
	f.Add([]byte{frameTypeI})
	f.Add([]byte{frameTypeP, 0x00})
	f.Add([]byte{0x00, 1, 2, 3})
	for _, p := range pkts {
		f.Add(p)
		f.Add(p[:len(p)/2])
		mut := append([]byte(nil), p...)
		mut[len(mut)/2] ^= 0xff
		f.Add(mut)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, err := dec.Decode(data); err == nil {
			if fr.W != cfg.Width || fr.H != cfg.Height || len(fr.Pix) != len(frames[0].Pix) {
				t.Fatalf("decoded frame has shape %dx%d/%d bytes", fr.W, fr.H, len(fr.Pix))
			}
		}
		for i, p := range pkts {
			got, err := dec.Decode(p)
			if err != nil {
				t.Fatalf("valid packet %d after fuzzed input: %v", i, err)
			}
			if !got.Equal(frames[i]) {
				t.Fatalf("valid packet %d after fuzzed input: frame differs", i)
			}
		}
	})
}
