package media

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultStreamBufferBytes is a FlushingSink's default queue cap: enough
// for a few GOPs of tiny-profile output without letting one slow client
// hold megabytes of rendered packets.
const DefaultStreamBufferBytes = 256 << 10

// FlushingSink decouples synthesis from a (possibly slow) streaming
// consumer. The producer writes into a bounded in-memory queue; a single
// drain goroutine copies queued bytes to the destination writer and calls
// its Flush method (if it has one — http.ResponseWriter does) at flush
// points, so network syscalls and a stalled client never sit between
// shard workers and the sink. Flush points that reach the drain together
// share one downstream flush: per-point flushes cost a cache-hit request
// a syscall and a client wake-up each for bytes already on their way.
//
// Write, Flush, and CloseFlush are safe to call from one producer
// goroutine; FirstFlush is safe from any goroutine.
type FlushingSink struct {
	dst io.Writer
	cap int

	mu         sync.Mutex
	cond       *sync.Cond
	pending    []byte
	flushPoint bool // Flush was called since the drain last looked
	closed     bool
	err        error
	firstFlush time.Time

	drainDone chan struct{}
}

// NewFlushingSink starts the drain goroutine and returns the sink. The
// caller must call CloseFlush to stop it and observe any write error.
// bufferBytes caps the bytes queued but not yet written downstream: a
// producer whose consumer falls behind blocks in Write once the queue is
// full — per-request backpressure that stalls only the delivery
// goroutine, never shard workers. <= 0 selects DefaultStreamBufferBytes.
func NewFlushingSink(dst io.Writer, bufferBytes int) *FlushingSink {
	if bufferBytes <= 0 {
		bufferBytes = DefaultStreamBufferBytes
	}
	f := &FlushingSink{
		dst:       dst,
		cap:       bufferBytes,
		drainDone: make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	go f.drain()
	return f
}

// Write queues p for delivery, blocking while the queue is over its byte
// cap (the backpressure point). The data is copied, so callers may reuse
// p. A downstream write failure is sticky: every later Write returns it,
// which is what aborts the synthesis feeding this sink.
func (f *FlushingSink) Write(p []byte) (int, error) {
	f.mu.Lock()
	for f.err == nil && !f.closed && len(f.pending) > 0 && len(f.pending)+len(p) > f.cap {
		f.cond.Wait()
	}
	if f.err != nil {
		err := f.err
		f.mu.Unlock()
		return 0, err
	}
	if f.closed {
		f.mu.Unlock()
		return 0, errors.New("media: flushing sink closed")
	}
	f.pending = append(f.pending, p...)
	f.cond.Broadcast()
	f.mu.Unlock()
	return len(p), nil
}

// Flush marks a flush point: the drain goroutine flushes the destination
// once everything queued so far is written.
// The container header and segment boundaries are the intended flush
// points (a media.Writer passes its own Flush calls here).
func (f *FlushingSink) Flush() {
	f.mu.Lock()
	f.flushPoint = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// CloseFlush drains the queue, performs a final flush, stops the drain
// goroutine, and returns the sticky downstream error, if any.
func (f *FlushingSink) CloseFlush() error {
	f.mu.Lock()
	alreadyClosed := f.closed
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
	if !alreadyClosed {
		<-f.drainDone
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// FirstFlush reports when the first bytes reached the destination and
// were flushed — the honest time-to-first-output for a network consumer.
func (f *FlushingSink) FirstFlush() (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstFlush, !f.firstFlush.IsZero()
}

// drain is the single consumer of the queue. It takes whole batches under
// the lock but performs downstream writes and flushes unlocked, so a slow
// destination blocks only this goroutine (and, via the byte cap, the
// producer's Write).
func (f *FlushingSink) drain() {
	defer close(f.drainDone)
	for {
		f.mu.Lock()
		for len(f.pending) == 0 && !f.flushPoint && !f.closed {
			f.cond.Wait()
		}
		batch := f.pending
		f.pending = nil
		flushPoint := f.flushPoint
		f.flushPoint = false
		closed := f.closed
		failed := f.err != nil
		f.cond.Broadcast()
		f.mu.Unlock()

		if !failed && len(batch) > 0 {
			if _, werr := f.dst.Write(batch); werr != nil {
				f.mu.Lock()
				f.err = fmt.Errorf("media: flushing sink: %w", werr)
				f.cond.Broadcast()
				f.mu.Unlock()
				failed = true
			}
		}
		if !failed && (closed || flushPoint) {
			if fl, ok := f.dst.(interface{ Flush() }); ok {
				fl.Flush()
			}
			f.mu.Lock()
			if f.firstFlush.IsZero() {
				f.firstFlush = time.Now()
			}
			f.mu.Unlock()
		}
		if closed {
			return
		}
	}
}
