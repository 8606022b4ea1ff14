package container

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"v2v/internal/rational"
)

// memFile adapts a byte slice to the File interface so the fuzzer can
// hand NewReader arbitrary container images without touching disk.
type memFile struct{ *bytes.Reader }

func (memFile) Close() error { return nil }

// fuzzSeedBytes builds a small valid VMF container in a temp dir and
// returns its bytes; mutations of it seed the corpus alongside the
// checked-in testdata/fuzz files.
func fuzzSeedBytes(tb testing.TB) []byte {
	tb.Helper()
	p := filepath.Join(tb.TempDir(), "seed.vmf")
	info := StreamInfo{Codec: "GV10", Width: 64, Height: 48, FPS: rational.FromInt(24), Quality: 1, GOP: 12, Level: 4}
	w, err := Create(p, info)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := w.WritePacket(int64(i), i%3 == 0, []byte{byte(i), 0xAA, byte(i * 7)}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzNewReader throws arbitrary bytes at the container opener and, when
// a reader comes back, at every accessor that trusts the parsed index.
// The property under test: corrupt input produces errors, never panics,
// index-geometry-driven huge allocations, or out-of-range reads.
func FuzzNewReader(f *testing.F) {
	seed := fuzzSeedBytes(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:4])
	f.Add([]byte{})
	v1 := append([]byte(nil), seed...)
	copy(v1, "VMF1") // the version-1 magic: rejected at the header
	f.Add(v1)
	for _, off := range []int{0, 5, len(seed) / 2, len(seed) - 5} {
		mut := append([]byte(nil), seed...)
		mut[off] ^= 0xFF
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(memFile{bytes.NewReader(data)})
		if err != nil {
			return // rejection is the expected outcome for corrupt input
		}
		defer r.Close()
		_ = r.Info()
		_ = r.ContentID()
		_ = r.Duration()
		_ = r.TimeRange()
		for i := 0; i < r.NumPackets(); i++ {
			_ = r.Record(i)
			_, _ = r.ReadPacket(i)
		}
		if n := r.NumPackets(); n > 0 {
			_, _ = r.IndexOfPTS(r.Record(0).PTS)
			_, _ = r.KeyframeAtOrBefore(n - 1)
			_, _ = r.NextKeyframeAfter(0)
		}
	})
}
