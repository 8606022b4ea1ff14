// Package faults is a deterministic, seedable fault-injection layer for
// V2V's read path. It wraps container files with probabilistic faults
// drawn from a seeded PRNG, so the robustness tests (`make chaos`) can
// reproduce a failure by replaying its seed. Only tests import it.
//
// Fault classes:
//
//   - bit flip: one random bit of the returned buffer is inverted,
//     modeling silent media corruption. VMF v2's per-packet CRC detects
//     these; concealment mode survives them.
//   - truncation: the read returns fewer bytes than requested with
//     io.ErrUnexpectedEOF, modeling a torn file.
//   - transient: the read fails with an EAGAIN-class error implementing
//     Transient() bool, which the container retries with bounded backoff.
//   - latency: the read sleeps, modeling slow storage (and making
//     cancellation races reproducible in tests).
package faults

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"v2v/internal/container"
)

// Config sets per-operation fault probabilities (each in [0,1]) and the
// seed that makes a run reproducible.
type Config struct {
	// Seed initializes the PRNG; runs with equal seeds and equal,
	// same-order operations inject identical faults.
	Seed int64
	// BitFlip is the probability a read returns data with one bit flipped.
	BitFlip float64
	// Truncate is the probability a read returns short with
	// io.ErrUnexpectedEOF.
	Truncate float64
	// Transient is the probability a read fails with a retryable
	// EAGAIN-class error.
	Transient float64
	// Latency sleeps this long on a read with probability LatencyProb.
	Latency     time.Duration
	LatencyProb float64
}

// Stats counts the faults an Injector actually delivered.
type Stats struct {
	Reads       int64
	BitFlips    int64
	Truncations int64
	Transients  int64
	Latencies   int64
}

// Injector draws faults from one seeded stream. Safe for concurrent use;
// under concurrency the assignment of faults to operations depends on
// scheduling, but the aggregate fault rate stays seed-determined.
type Injector struct {
	cfg   Config
	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns the faults delivered so far.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Activate installs the injector process-wide: every container file
// opened afterwards reads through it. Pair with a deferred Deactivate.
func (in *Injector) Activate() { container.SetFileWrapper(in.WrapFile) }

// Deactivate removes any installed file wrapper.
func Deactivate() { container.SetFileWrapper(nil) }

// TransientErr is the injected retryable error class; the container's
// read path retries it with bounded backoff.
type TransientErr struct{ Op string }

func (e *TransientErr) Error() string {
	return fmt.Sprintf("faults: transient %s error (injected)", e.Op)
}
func (e *TransientErr) Transient() bool { return true }

// decision is one draw from the fault stream.
type decision struct {
	latency  bool
	trans    bool
	truncate bool
	bitflip  bool
	bitIndex int64 // which bit of the buffer to flip
}

func (in *Injector) draw(bufBits int64) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Reads++
	var d decision
	if in.cfg.LatencyProb > 0 && in.rng.Float64() < in.cfg.LatencyProb {
		d.latency = true
		in.stats.Latencies++
	}
	// At most one data-affecting fault per operation, checked in severity
	// order: a transient error preempts corruption.
	switch {
	case in.cfg.Transient > 0 && in.rng.Float64() < in.cfg.Transient:
		d.trans = true
		in.stats.Transients++
	case in.cfg.Truncate > 0 && in.rng.Float64() < in.cfg.Truncate:
		d.truncate = true
		in.stats.Truncations++
	case in.cfg.BitFlip > 0 && in.rng.Float64() < in.cfg.BitFlip:
		d.bitflip = true
		if bufBits > 0 {
			d.bitIndex = in.rng.Int63n(bufBits)
		}
		in.stats.BitFlips++
	}
	return d
}

// WrapFile wraps f so reads pass through the injector. Matches the
// container.SetFileWrapper signature.
func (in *Injector) WrapFile(path string, f container.File) container.File {
	return &faultFile{in: in, f: f}
}

type faultFile struct {
	in *Injector
	f  container.File
}

func (ff *faultFile) apply(p []byte, n int, err error) (int, error) {
	d := ff.in.draw(int64(n) * 8)
	if d.latency {
		time.Sleep(ff.in.cfg.Latency)
	}
	switch {
	case d.trans:
		return 0, &TransientErr{Op: "read"}
	case d.truncate && n > 0:
		return n / 2, io.ErrUnexpectedEOF
	case d.bitflip && n > 0:
		p[d.bitIndex/8] ^= 1 << (d.bitIndex % 8)
	}
	return n, err
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := ff.f.ReadAt(p, off)
	return ff.apply(p, n, err)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	return ff.f.Seek(offset, whence)
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// CorruptRange XORs every byte of path in [off, off+length) with a
// nonzero byte drawn from seed — guaranteed damage, reproducible across
// runs. Tests use it to hit specific VMF regions (header, index, packet
// payload).
func CorruptRange(path string, off, length, seed int64) error {
	if length <= 0 {
		return fmt.Errorf("faults: corrupt range length %d", length)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("faults: read range: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range buf {
		buf[i] ^= byte(1 + rng.Intn(255))
	}
	if _, err := f.WriteAt(buf, off); err != nil {
		return fmt.Errorf("faults: write range: %w", err)
	}
	return f.Close()
}
