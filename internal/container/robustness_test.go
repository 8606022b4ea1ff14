package container

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestAtomicWriteLifecycle checks the atomic-output contract: nothing
// appears at the target path until Close, and Abort removes the temp
// without ever creating the target.
func TestAtomicWriteLifecycle(t *testing.T) {
	dir := t.TempDir()

	p := filepath.Join(dir, "a.vmf")
	w, err := Create(p, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(0, true, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
		t.Error("target path exists before Close")
	}
	if _, err := os.Stat(p + ".tmp"); err != nil {
		t.Errorf("temp file missing during write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Errorf("target path missing after Close: %v", err)
	}
	if _, err := os.Stat(p + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("temp file left behind after Close")
	}

	p2 := filepath.Join(dir, "b.vmf")
	w2, err := Create(p2, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.WritePacket(0, true, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	for _, q := range []string{p2, p2 + ".tmp"} {
		if _, err := os.Stat(q); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("Abort left %s behind", q)
		}
	}
	// Abort after Abort, and Abort after Close, are no-ops.
	if err := w2.Abort(); err != nil {
		t.Errorf("double Abort: %v", err)
	}
	if err := w.Abort(); err != nil {
		t.Errorf("Abort after Close: %v", err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Error("Abort after Close removed the finished file")
	}
}

// TestCRCDetectsPayloadFlip flips one payload byte of a closed v2 file
// and checks that Open still succeeds (the index is intact) but reading
// the damaged packet reports ErrCorruptPacket, while its neighbors read
// cleanly.
func TestCRCDetectsPayloadFlip(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.vmf")
	payloads := writeFile(t, p, testInfo(), 10, 5)

	r, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := r.Record(3)
	r.Close()

	f, err := os.OpenFile(p, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{payloads[3][1] ^ 0x40}, rec.Offset+1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err = Open(p)
	if err != nil {
		t.Fatalf("Open after payload flip (index intact): %v", err)
	}
	defer r.Close()
	if r.Version() != 2 {
		t.Fatalf("Version = %d, want 2", r.Version())
	}
	if _, err := r.ReadPacket(3); !errors.Is(err, ErrCorruptPacket) {
		t.Errorf("ReadPacket(3) = %v, want ErrCorruptPacket", err)
	}
	for _, i := range []int{0, 2, 4, 9} {
		got, err := r.ReadPacket(i)
		if err != nil {
			t.Errorf("ReadPacket(%d): %v", i, err)
		} else if string(got) != string(payloads[i]) {
			t.Errorf("ReadPacket(%d) payload mismatch", i)
		}
	}
}

// writeV1File hand-crafts a version-1 VMF file (21-byte index records, no
// CRCs) as the pre-CRC writer produced it.
func writeV1File(t *testing.T, path string, info StreamInfo, payloads [][]byte) {
	t.Helper()
	hdr, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = append(buf, magicHeadV1...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	offs := make([]int64, len(payloads))
	for i, pl := range payloads {
		offs[i] = int64(len(buf))
		buf = append(buf, pl...)
	}
	idxOff := int64(len(buf))
	for i, pl := range payloads {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(i)) // PTS
		buf = binary.LittleEndian.AppendUint64(buf, uint64(offs[i]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pl)))
		key := byte(0)
		if i == 0 {
			key = 1
		}
		buf = append(buf, key)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(idxOff))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payloads)))
	buf = append(buf, magicFoot...)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV1BackCompat reads a hand-crafted version-1 file: it must open,
// report Version 1, and — lacking checksums — return payloads unverified
// even after a byte flip.
func TestV1BackCompat(t *testing.T) {
	p := filepath.Join(t.TempDir(), "v1.vmf")
	payloads := [][]byte{[]byte("first-key-packet"), []byte("second"), []byte("third-packet")}
	writeV1File(t, p, testInfo(), payloads)

	r, err := Open(p)
	if err != nil {
		t.Fatalf("Open v1: %v", err)
	}
	if r.Version() != 1 {
		t.Fatalf("Version = %d, want 1", r.Version())
	}
	if r.NumPackets() != len(payloads) {
		t.Fatalf("NumPackets = %d, want %d", r.NumPackets(), len(payloads))
	}
	for i, want := range payloads {
		got, err := r.ReadPacket(i)
		if err != nil {
			t.Fatalf("ReadPacket(%d): %v", i, err)
		}
		if string(got) != string(want) {
			t.Errorf("ReadPacket(%d) = %q, want %q", i, got, want)
		}
	}
	rec := r.Record(1)
	r.Close()

	// Flip a payload byte: a v1 reader has no CRC to notice.
	f, err := os.OpenFile(p, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{payloads[1][0] ^ 0xFF}, rec.Offset); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err = Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadPacket(1); err != nil {
		t.Errorf("v1 ReadPacket after flip should pass unverified, got %v", err)
	}
}

// flakyFile fails every ReadAt with a retryable error until failures are
// exhausted, then delegates.
type flakyFile struct {
	File
	mu        sync.Mutex
	remaining int
}

type errFlaky struct{}

func (errFlaky) Error() string   { return "test: transient (injected)" }
func (errFlaky) Transient() bool { return true }

func (f *flakyFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	fail := f.remaining > 0
	if fail {
		f.remaining--
	}
	f.mu.Unlock()
	if fail {
		return 0, errFlaky{}
	}
	return f.File.ReadAt(p, off)
}

// TestReadPacketRetriesTransient exercises the bounded retry loop
// directly: two consecutive transient faults on the packet-read path are
// absorbed (Retries()==2), while more than maxReadRetries consecutive
// faults surface the error. Open-time reads share the loop.
func TestReadPacketRetriesTransient(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.vmf")
	payloads := writeFile(t, p, testInfo(), 4, 2)

	f, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	ff := &flakyFile{File: f}
	r, err := NewReader(ff)
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	defer r.Close()

	ff.mu.Lock()
	ff.remaining = 2
	ff.mu.Unlock()
	got, err := r.ReadPacket(0)
	if err != nil {
		t.Fatalf("ReadPacket under 2 transients: %v", err)
	}
	if string(got) != string(payloads[0]) {
		t.Error("payload mismatch after retries")
	}
	if n := r.Retries(); n != 2 {
		t.Errorf("Retries = %d, want 2", n)
	}

	// maxReadRetries+1 consecutive faults exhaust the budget.
	ff.mu.Lock()
	ff.remaining = maxReadRetries + 1
	ff.mu.Unlock()
	if _, err := r.ReadPacket(1); err == nil {
		t.Error("ReadPacket should fail once the retry budget is exhausted")
	}

	// Opening reads through the same retry loop: two transients before
	// NewReader still open the file.
	f2, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewReader(&flakyFile{File: f2, remaining: 2})
	if err != nil {
		f2.Close()
		t.Fatalf("NewReader under 2 transients: %v", err)
	}
	defer r2.Close()
	if n := r2.Retries(); n != 2 {
		t.Errorf("Retries after open = %d, want 2", n)
	}
}
