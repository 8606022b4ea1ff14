// Package container implements VMF ("V2V Media Format"), the seekable
// single-stream packet container the execution engine reads and writes.
//
// VMF stands in for MP4/MKV. Its on-disk layout mirrors what matters for
// query execution: packets are stored contiguously, and a compact index at
// the end of the file records every packet's presentation timestamp, byte
// extent, and keyframe flag. The index is what makes time-seeks and
// smart-cut planning cheap (find keyframes in a clipped range without
// touching packet data), the same role keyframe indexes play in Scanner
// and LosslessCut.
//
// Layout:
//
//	magic "VMF2" | u32 header length | JSON StreamInfo
//	packet bytes ...
//	index: per packet { i64 pts, u64 offset, u32 size, u8 key, u32 crc32 }
//	footer: u64 index offset | u32 packet count | magic "XFMV"
//
// The header is WriteHeader's, which the VMS stream format shares. Any
// other magic, the version-1 "VMF1" included, fails Open. The per-packet
// CRC32 (IEEE) lets ReadPacket detect payload corruption at read time
// instead of handing garbage to the decoder — see docs/ROBUSTNESS.md for
// the fault model built on top of it.
//
// Timestamps are frame counts: packet PTS n has presentation time
// Start + n/FPS, kept exact with rationals.
//
// VMF is a seekable-only format: because the index lives at the end of
// the file, a VMF file is not consumable until it is complete, and a
// truncated file is structurally detectable (missing footer). Progressive
// consumption — header and packets valid the moment they are written,
// with a typed end-of-stream trailer distinguishing a complete stream
// from a cut connection — is the VMS stream format's job
// (internal/media's StreamWriter/StreamReader; docs/STREAMING.md).
//
// Robustness properties:
//
//   - Writers are atomic: Create writes to <path>.tmp and Close renames it
//     into place, so a crashed or aborted synthesis never leaves a
//     truncated file at the target path. Abort discards the temp file.
//   - ReadPacket verifies the index CRC and returns errors
//     wrapping ErrCorruptPacket for payload damage, which the executor's
//     concealment mode matches on.
//   - Transient read errors (anything implementing Transient() bool, as
//     injected by internal/faults) are retried up to maxReadRetries times
//     with doubling backoff before being reported.
package container

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"v2v/internal/rational"
)

const (
	magicHead     = "VMF2"
	magicFoot     = "XFMV"
	recSize       = 8 + 8 + 4 + 1 + 4
	footerSize    = 8 + 4 + 4
	maxHeaderSize = 1 << 20

	// maxReadRetries bounds the retry loop for transient read errors;
	// the k-th retry waits retryBackoff << k.
	maxReadRetries = 3
	retryBackoff   = time.Millisecond
)

// ErrCorruptPacket reports packet payload damage: a CRC mismatch against
// the index, or a short read inside a packet's recorded extent. The
// executor's error-concealment mode matches this error (and undecodable
// packets) to substitute the last good frame instead of failing the run.
var ErrCorruptPacket = errors.New("container: corrupt packet")

// OnTransientRetry, when non-nil, is called once per retried transient
// read (it feeds the v2v_transient_retries_total counter). It must be set
// during init, before readers are in use.
var OnTransientRetry func()

// File is the abstract random-access file a Reader operates on. *os.File
// implements it; internal/faults wraps it to inject read faults.
type File interface {
	io.ReaderAt
	io.Seeker
	io.Closer
}

var (
	wrapMu   sync.Mutex
	fileWrap func(path string, f File) File
)

// SetFileWrapper installs a hook applied to every file opened by Open —
// the seam the fault-injection tests (internal/faults) use to inject
// faults into real synthesis runs. Pass nil to remove it. Intended for
// tests only.
func SetFileWrapper(w func(path string, f File) File) {
	wrapMu.Lock()
	fileWrap = w
	wrapMu.Unlock()
}

func wrapOpenedFile(path string, f File) File {
	wrapMu.Lock()
	w := fileWrap
	wrapMu.Unlock()
	if w == nil {
		return f
	}
	return w(path, f)
}

// StreamInfo describes the single video stream in a VMF file. Codec
// parameters are carried in the container so a reader can construct a
// decoder without out-of-band data.
type StreamInfo struct {
	Codec   string       `json:"codec"` // codec fourcc, e.g. "GV10"
	Width   int          `json:"width"`
	Height  int          `json:"height"`
	FPS     rational.Rat `json:"fps"`
	Start   rational.Rat `json:"start"`             // presentation time of PTS 0
	Quality int          `json:"quality,omitempty"` // codec quantizer
	GOP     int          `json:"gop,omitempty"`     // keyframe interval hint
	Level   int          `json:"level,omitempty"`   // changes no byte; goes with ROADMAP item 5
}

// Validate reports whether the stream info is usable.
func (si StreamInfo) Validate() error {
	if si.Codec == "" {
		return errors.New("container: empty codec")
	}
	if si.Width <= 0 || si.Height <= 0 {
		return fmt.Errorf("container: invalid dimensions %dx%d", si.Width, si.Height)
	}
	if si.FPS.Sign() <= 0 {
		return fmt.Errorf("container: non-positive fps %v", si.FPS)
	}
	return nil
}

// Mismatch is the splice rule: it returns "" when packets from a stream
// with info o can be spliced into a stream with this info without
// re-encoding — the FFmpeg "concatenating compatible streams" condition —
// and otherwise names the first field that differs. Only what changes the
// bytes counts: the codec, frame size and rate, and quantizer; not the
// GOP hint, nor Level.
func (si StreamInfo) Mismatch(o StreamInfo) string {
	switch {
	case si.Codec != o.Codec:
		return fmt.Sprintf("codec %q vs %q", si.Codec, o.Codec)
	case si.Width != o.Width || si.Height != o.Height:
		return fmt.Sprintf("size %dx%d vs %dx%d", si.Width, si.Height, o.Width, o.Height)
	case !si.FPS.Equal(o.FPS):
		return fmt.Sprintf("fps %s vs %s", si.FPS, o.FPS)
	case si.Quality != o.Quality:
		return fmt.Sprintf("quality %d vs %d", si.Quality, o.Quality)
	}
	return ""
}

// WriteHeader validates info and writes the header both stream formats
// open with — magic, a u32 length, then info as JSON — in one write. It
// returns the header's length.
func WriteHeader(w io.Writer, magic string, info StreamInfo) (int, error) {
	if err := info.Validate(); err != nil {
		return 0, err
	}
	hdr, err := json.Marshal(info)
	if err != nil {
		return 0, fmt.Errorf("container: marshal header: %w", err)
	}
	buf := binary.LittleEndian.AppendUint32([]byte(magic), uint32(len(hdr)))
	n, err := w.Write(append(buf, hdr...))
	if err != nil {
		return n, fmt.Errorf("container: write header: %w", err)
	}
	return n, nil
}

// ReadHeader parses the header WriteHeader wrote with magic and validates
// the stream info. It also returns the header's bytes, magic included.
func ReadHeader(r io.Reader, magic string) (StreamInfo, []byte, error) {
	var info StreamInfo
	raw := make([]byte, 8)
	if _, err := io.ReadFull(r, raw); err != nil {
		return info, nil, fmt.Errorf("container: read magic: %w", err)
	}
	if string(raw[:4]) != magic {
		return info, nil, fmt.Errorf("container: bad magic %q", raw[:4])
	}
	n := binary.LittleEndian.Uint32(raw[4:])
	if n == 0 || n > maxHeaderSize {
		return info, nil, fmt.Errorf("container: implausible header length %d", n)
	}
	raw = append(raw, make([]byte, n)...)
	if _, err := io.ReadFull(r, raw[8:]); err != nil {
		return info, nil, fmt.Errorf("container: read header: %w", err)
	}
	if err := json.Unmarshal(raw[8:], &info); err != nil {
		return info, nil, fmt.Errorf("container: parse header: %w", err)
	}
	return info, raw, info.Validate()
}

// TimeOf returns the presentation time of the packet with the given PTS.
func (si StreamInfo) TimeOf(pts int64) rational.Rat {
	return si.Start.Add(rational.FromInt(pts).Div(si.FPS))
}

// PTSOf returns the PTS whose presentation time is t and whether t lands
// exactly on a frame boundary.
func (si StreamInfo) PTSOf(t rational.Rat) (int64, bool) {
	k := t.Sub(si.Start).Mul(si.FPS)
	return k.Floor(), k.IsInt()
}

// FrameDur returns the duration of one frame (1/FPS).
func (si StreamInfo) FrameDur() rational.Rat {
	return rational.One.Div(si.FPS)
}

// PacketRecord is one index entry. CRC is the IEEE CRC32 of the packet
// payload.
type PacketRecord struct {
	PTS    int64
	Offset int64
	Size   int
	Key    bool
	CRC    uint32
}

// Writer writes a VMF file. Packets must be appended in
// strictly increasing PTS order and the first packet must be a keyframe.
//
// Output is atomic: bytes go to <path>.tmp and Close renames the finished
// file into place, so a crash, error, or Abort never leaves a truncated
// file at the target path.
type Writer struct {
	f      *os.File
	path   string // final path, created by Close's rename
	tmp    string // temp path holding the in-progress file
	recs   []PacketRecord
	off    int64
	closed bool
}

// Create opens path for writing and emits the header. The data lands at
// <path>.tmp until Close succeeds; an invalid info leaves nothing behind.
func Create(path string, info StreamInfo) (*Writer, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("container: %w", err)
	}
	n, err := WriteHeader(f, magicHead, info)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return &Writer{f: f, path: path, tmp: tmp, off: int64(n)}, nil
}

// WritePacket appends one packet, recording its CRC32 in the index.
func (w *Writer) WritePacket(pts int64, key bool, data []byte) error {
	if w.closed {
		return errors.New("container: writer closed")
	}
	if len(w.recs) == 0 && !key {
		return errors.New("container: first packet must be a keyframe")
	}
	if n := len(w.recs); n > 0 && pts <= w.recs[n-1].PTS {
		return fmt.Errorf("container: PTS %d not increasing (last %d)", pts, w.recs[n-1].PTS)
	}
	if len(data) == 0 {
		return errors.New("container: empty packet")
	}
	if _, err := w.f.Write(data); err != nil {
		return fmt.Errorf("container: write packet: %w", err)
	}
	w.recs = append(w.recs, PacketRecord{
		PTS: pts, Offset: w.off, Size: len(data), Key: key,
		CRC: crc32.ChecksumIEEE(data),
	})
	w.off += int64(len(data))
	return nil
}

// Close writes the index and footer, closes the temp file, and renames it
// to the target path. On any error the temp file is removed and nothing
// appears at the target path.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	idxOff := w.off
	buf := make([]byte, 0, len(w.recs)*recSize+footerSize)
	var rec [recSize]byte
	for _, r := range w.recs {
		binary.LittleEndian.PutUint64(rec[0:], uint64(r.PTS))
		binary.LittleEndian.PutUint64(rec[8:], uint64(r.Offset))
		binary.LittleEndian.PutUint32(rec[16:], uint32(r.Size))
		rec[20] = 0
		if r.Key {
			rec[20] = 1
		}
		binary.LittleEndian.PutUint32(rec[21:], r.CRC)
		buf = append(buf, rec[:]...)
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(idxOff))
	binary.LittleEndian.PutUint32(foot[8:], uint32(len(w.recs)))
	copy(foot[12:], magicFoot)
	buf = append(buf, foot[:]...)
	w.recs = nil // release the index buffer either way
	if _, err := w.f.Write(buf); err != nil {
		w.f.Close()
		os.Remove(w.tmp)
		return fmt.Errorf("container: write index: %w", err)
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("container: close: %w", err)
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("container: finalize: %w", err)
	}
	return nil
}

// Abort discards the in-progress file: it closes and removes the temp
// file without ever touching the target path. Calling Abort after a
// successful Close (or calling it twice) is a no-op.
func (w *Writer) Abort() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.recs = nil
	err := w.f.Close()
	if rerr := os.Remove(w.tmp); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		return fmt.Errorf("container: abort: %w", err)
	}
	return nil
}

// Reader reads a VMF file. Safe for concurrent ReadPacket calls (it uses
// positioned reads).
type Reader struct {
	f         *retryFile
	info      StreamInfo
	recs      []PacketRecord
	contentID string
}

// Retries returns how many transient read retries this reader performed.
func (r *Reader) Retries() int64 { return r.f.retries.Load() }

// Open opens and indexes a VMF file.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("container: %w", err)
	}
	file := wrapOpenedFile(path, f)
	r, err := NewReader(file)
	if err != nil {
		file.Close()
		return nil, err
	}
	return r, nil
}

// NewReader indexes an already-open file. The reader takes ownership of f
// on success (Close closes it); on error the caller keeps ownership.
//
// Every read is positioned and goes through retryFile, so the header,
// footer and index reads retry transient errors exactly as packet reads
// do.
func NewReader(f File) (*Reader, error) {
	r := &Reader{f: &retryFile{File: f}}
	info, hdr, err := ReadHeader(io.NewSectionReader(r.f, 0, 8+maxHeaderSize), magicHead)
	if err != nil {
		return nil, err
	}

	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("container: %w", err)
	}
	if end < footerSize {
		return nil, errors.New("container: truncated file (no footer)")
	}
	var foot [footerSize]byte
	if _, err := r.f.ReadAt(foot[:], end-footerSize); err != nil {
		return nil, fmt.Errorf("container: read footer: %w", err)
	}
	if string(foot[12:]) != magicFoot {
		return nil, errors.New("container: bad footer magic (unclosed writer?)")
	}
	idxOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	count := int(binary.LittleEndian.Uint32(foot[8:]))
	if idxOff < 0 || idxOff > end-footerSize || int64(count)*int64(recSize) != end-footerSize-idxOff {
		return nil, errors.New("container: corrupt index geometry")
	}
	idx := make([]byte, count*recSize)
	if _, err := r.f.ReadAt(idx, idxOff); err != nil {
		return nil, fmt.Errorf("container: read index: %w", err)
	}
	recs := make([]PacketRecord, count)
	for i := range recs {
		rec := idx[i*recSize:]
		recs[i] = PacketRecord{
			PTS:    int64(binary.LittleEndian.Uint64(rec[0:])),
			Offset: int64(binary.LittleEndian.Uint64(rec[8:])),
			Size:   int(binary.LittleEndian.Uint32(rec[16:])),
			Key:    rec[20] == 1,
			CRC:    binary.LittleEndian.Uint32(rec[21:]),
		}
		// Validate each record against the file geometry so that a
		// corrupted index cannot demand absurd allocations or reads.
		pr := recs[i]
		if pr.Size <= 0 || pr.Offset < int64(len(hdr)) || pr.Offset+int64(pr.Size) > idxOff {
			return nil, fmt.Errorf("container: corrupt index record %d (offset %d size %d)", i, pr.Offset, pr.Size)
		}
		if rec[20] > 1 {
			return nil, fmt.Errorf("container: corrupt key flag in record %d", i)
		}
		if i > 0 && pr.PTS <= recs[i-1].PTS {
			return nil, fmt.Errorf("container: non-increasing PTS in record %d", i)
		}
	}
	if count > 0 && !recs[0].Key {
		return nil, errors.New("container: stream does not start at a keyframe")
	}
	// Content identity: hash the header, the file size, and the raw index.
	// The index carries every packet's PTS, extent, keyframe flag, and
	// payload CRC32, so any change to packet content or stream structure
	// changes the ID without reading packet data.
	ch := sha256.New()
	ch.Write(hdr)
	var szBuf [8]byte
	binary.LittleEndian.PutUint64(szBuf[:], uint64(end))
	ch.Write(szBuf[:])
	ch.Write(idx)
	r.info, r.recs = info, recs
	r.contentID = hex.EncodeToString(ch.Sum(nil))
	return r, nil
}

// ContentID returns a collision-resistant identifier of the file's
// content, derived from the header and packet index (including per-packet
// CRCs) rather than the path or mtime. Rewriting a file in place with
// different content yields a different ID, which is what makes it safe to
// key cross-request result caches on.
func (r *Reader) ContentID() string { return r.contentID }

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// Info returns the stream description.
func (r *Reader) Info() StreamInfo { return r.info }

// NumPackets returns the number of packets in the file.
func (r *Reader) NumPackets() int { return len(r.recs) }

// Record returns the index entry for packet i.
func (r *Reader) Record(i int) PacketRecord { return r.recs[i] }

// Records returns the full packet index (do not mutate).
func (r *Reader) Records() []PacketRecord { return r.recs }

// transienter marks retryable errors (EAGAIN-class); internal/faults
// produces them, and real backends could too.
type transienter interface{ Transient() bool }

func isTransient(err error) bool {
	var t transienter
	return errors.As(err, &t) && t.Transient()
}

// ReadPacket reads the payload of packet i, verifying the index CRC.
// Payload damage — CRC mismatch or a short read inside the recorded
// extent — is reported wrapping ErrCorruptPacket; transient read errors
// are retried with bounded backoff first.
func (r *Reader) ReadPacket(i int) ([]byte, error) {
	if i < 0 || i >= len(r.recs) {
		return nil, fmt.Errorf("container: packet %d out of range [0,%d)", i, len(r.recs))
	}
	rec := r.recs[i]
	buf := make([]byte, rec.Size)
	if _, err := r.f.ReadAt(buf, rec.Offset); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: packet %d short read: %w", ErrCorruptPacket, i, err)
		}
		return nil, fmt.Errorf("container: read packet %d: %w", i, err)
	}
	if got := crc32.ChecksumIEEE(buf); got != rec.CRC {
		return nil, fmt.Errorf("%w: packet %d CRC mismatch (index %08x, payload %08x)",
			ErrCorruptPacket, i, rec.CRC, got)
	}
	return buf, nil
}

// retryFile is a Reader's file, whose ReadAt retries the transient error
// class with bounded backoff (the policy documented in
// docs/ROBUSTNESS.md). It is the Reader's only read path.
type retryFile struct {
	File
	retries atomic.Int64 // transient read retries performed
}

func (f *retryFile) ReadAt(buf []byte, off int64) (int, error) {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		n, err := f.File.ReadAt(buf, off)
		if err == nil || !isTransient(err) || attempt >= maxReadRetries {
			return n, err
		}
		f.retries.Add(1)
		if OnTransientRetry != nil {
			OnTransientRetry()
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// IndexOfPTS returns the packet index with the given PTS, or (-1, false).
func (r *Reader) IndexOfPTS(pts int64) (int, bool) {
	i := sort.Search(len(r.recs), func(i int) bool { return r.recs[i].PTS >= pts })
	if i < len(r.recs) && r.recs[i].PTS == pts {
		return i, true
	}
	return -1, false
}

// KeyframeAtOrBefore returns the index of the last keyframe packet at or
// before packet i, or (-1, false) if none exists (corrupt file).
func (r *Reader) KeyframeAtOrBefore(i int) (int, bool) {
	if i >= len(r.recs) {
		i = len(r.recs) - 1
	}
	for ; i >= 0; i-- {
		if r.recs[i].Key {
			return i, true
		}
	}
	return -1, false
}

// NextKeyframeAfter returns the index of the first keyframe packet at or
// after packet i, or (-1, false).
func (r *Reader) NextKeyframeAfter(i int) (int, bool) {
	if i < 0 {
		i = 0
	}
	for ; i < len(r.recs); i++ {
		if r.recs[i].Key {
			return i, true
		}
	}
	return -1, false
}

// Duration returns the presentation duration of the stream (packet count
// over FPS for a complete stream).
func (r *Reader) Duration() rational.Rat {
	if len(r.recs) == 0 {
		return rational.Zero
	}
	last := r.recs[len(r.recs)-1].PTS
	first := r.recs[0].PTS
	return rational.FromInt(last - first + 1).Div(r.info.FPS)
}

// TimeRange returns the half-open presentation interval covered by the
// stream.
func (r *Reader) TimeRange() rational.Interval {
	if len(r.recs) == 0 {
		return rational.Interval{}
	}
	return rational.Interval{
		Lo: r.info.TimeOf(r.recs[0].PTS),
		Hi: r.info.TimeOf(r.recs[len(r.recs)-1].PTS).Add(r.info.FrameDur()),
	}
}
