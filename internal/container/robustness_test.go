package container

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// TestV1Rejected: a file with the version-1 magic — here a real file
// with its magic patched to "VMF1" — fails Open with the bad-magic error
// naming "VMF1". Version-1 files (21-byte index records, no CRCs) are no
// longer read.
func TestV1Rejected(t *testing.T) {
	p := filepath.Join(t.TempDir(), "v1.vmf")
	writeFile(t, p, testInfo(), 3, 5)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "VMF1")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(p)
	if err == nil {
		r.Close()
		t.Fatal("Open accepted a VMF1 file")
	}
	if !strings.Contains(err.Error(), "bad magic") || !strings.Contains(err.Error(), `"VMF1"`) {
		t.Errorf("Open(VMF1) = %v, want the bad-magic error naming \"VMF1\"", err)
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

// firstReadFlakyFile fails the first read at each offset once armed, with a
// transient error, whichever goroutine makes it.
type firstReadFlakyFile struct {
	File
	mu    sync.Mutex
	armed bool
	seen  map[int64]bool
}

func (f *firstReadFlakyFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	fail := f.armed && !f.seen[off]
	if f.armed {
		f.seen[off] = true
	}
	f.mu.Unlock()
	if fail {
		return 0, errFlaky{}
	}
	return f.File.ReadAt(p, off)
}

// TestReaderSharedAcrossGoroutines: one Reader serves concurrent
// ReadPacket calls, as a run's shard workers share one per source. Eight
// goroutines read every packet through a wrapped file whose first read of
// each packet fails transiently; each gets the bytes a serial read gets,
// and the retry count is exactly one per packet.
func TestReaderSharedAcrossGoroutines(t *testing.T) {
	p := filepath.Join(t.TempDir(), "a.vmf")
	n := len(writeFile(t, p, testInfo(), 64, 8))
	var wrapped *firstReadFlakyFile
	SetFileWrapper(func(_ string, f File) File {
		wrapped = &firstReadFlakyFile{File: f, seen: map[int64]bool{}}
		return wrapped
	})
	r, err := Open(p)
	SetFileWrapper(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	serial := make([][]byte, n)
	for i := range serial {
		if serial[i], err = r.ReadPacket(i); err != nil {
			t.Fatal(err)
		}
	}
	wrapped.mu.Lock()
	wrapped.armed = true
	wrapped.mu.Unlock()
	before := r.Retries()

	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := (k + g*n/goroutines) % n // each starts at a different packet
				got, err := r.ReadPacket(i)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, serial[i]) {
					errs <- fmt.Errorf("goroutine %d: packet %d differs from the serial read", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := r.Retries() - before; got != int64(n) {
		t.Errorf("retries = %d, want one per packet (%d)", got, n)
	}
}
