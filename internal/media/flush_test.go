package media

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// flushCountingWriter records bytes and Flush calls, optionally gating
// every Write on a channel so tests can simulate a slow client.
type flushCountingWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	flushes int
	gate    chan struct{} // if non-nil, each Write receives once first
	err     error
}

func (w *flushCountingWriter) Write(p []byte) (int, error) {
	if w.gate != nil {
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	return w.buf.Write(p)
}

func (w *flushCountingWriter) Flush() {
	w.mu.Lock()
	w.flushes++
	w.mu.Unlock()
}

func (w *flushCountingWriter) snapshot() (int, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Len(), w.flushes
}

func TestFlushingSinkDeliversAllBytes(t *testing.T) {
	dst := &flushCountingWriter{}
	fs := NewFlushingSink(dst, 64)
	var want bytes.Buffer
	for i := 0; i < 200; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 7)
		want.Write(chunk)
		if _, err := fs.Write(chunk); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			fs.Flush()
		}
	}
	if err := fs.CloseFlush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.buf.Bytes(), want.Bytes()) {
		t.Fatalf("delivered %d bytes, want %d (content mismatch)", dst.buf.Len(), want.Len())
	}
	if _, got := dst.snapshot(); got == 0 {
		t.Error("no downstream flushes issued")
	}
	if _, ok := fs.FirstFlush(); !ok {
		t.Error("first flush never stamped")
	}
	if _, err := fs.Write([]byte("x")); err == nil {
		t.Error("write after close should fail")
	}
}

// TestFlushingSinkBackpressure fills the queue against a gated writer and
// asserts the producer blocks in Write until the consumer drains — and
// only then, proving the cap is the backpressure point.
func TestFlushingSinkBackpressure(t *testing.T) {
	dst := &flushCountingWriter{gate: make(chan struct{})}
	fs := NewFlushingSink(dst, 32)

	// The drain goroutine takes the first batch and blocks in the gated
	// Write; the queue then fills to its cap.
	if _, err := fs.Write(bytes.Repeat([]byte{1}, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(bytes.Repeat([]byte{2}, 32)); err != nil {
		t.Fatal(err)
	}

	blocked := make(chan error, 1)
	go func() {
		_, err := fs.Write(bytes.Repeat([]byte{3}, 16))
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("over-cap write returned early (err=%v); backpressure missing", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Let the slow client drain; the blocked write completes.
	go func() {
		for i := 0; i < 8; i++ {
			dst.gate <- struct{}{}
		}
	}()
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write stayed blocked after the consumer drained")
	}
	go func() {
		for {
			select {
			case dst.gate <- struct{}{}:
			case <-time.After(time.Second):
				return
			}
		}
	}()
	if err := fs.CloseFlush(); err != nil {
		t.Fatal(err)
	}
	if got := dst.buf.Len(); got != 64 {
		t.Errorf("delivered %d bytes, want 64", got)
	}
}

func TestFlushingSinkStickyError(t *testing.T) {
	dst := &flushCountingWriter{err: errors.New("peer reset")}
	fs := NewFlushingSink(dst, 8)
	deadline := time.Now().Add(2 * time.Second)
	var err error
	for {
		_, err = fs.Write([]byte("abcdefgh"))
		if err != nil || time.Now().After(deadline) {
			break
		}
	}
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("peer reset")) {
		t.Fatalf("producer write error = %v, want sticky peer reset", err)
	}
	if cerr := fs.CloseFlush(); cerr == nil || !bytes.Contains([]byte(cerr.Error()), []byte("peer reset")) {
		t.Fatalf("CloseFlush = %v, want the sticky error", cerr)
	}
}
