// Package media ties the container and codec into a frame-level reader and
// writer, and implements the two domain-specific editing primitives from
// the paper's §III-D: stream copying (CopyRange) and smart cuts (SmartCut).
//
// A Reader decodes frames with random access by seeking to the keyframe at
// or before the target and rolling forward — the partial group-of-pictures
// decode the paper borrows from Scanner. A Writer encodes frames, and can
// also splice raw packets from a compatible stream without re-encoding;
// after a splice the next encoded frame is forced to be a keyframe so the
// output stream stays decodable.
package media

import (
	"errors"
	"fmt"

	"v2v/internal/codec"
	"v2v/internal/container"
	"v2v/internal/frame"
	"v2v/internal/obs"
	"v2v/internal/rational"
)

// Reader provides random access to the frames of a VMF file.
// Not safe for concurrent use; open one Reader per goroutine.
//
// Decoded frames come out of frame.DefaultPool. Every frame a Reader hands
// out carries a reference owned by the caller, who should Release it when
// done (one never released is left to the garbage collector); Close drops
// the reader's own references.
type Reader struct {
	c    *container.Reader
	dec  *codec.Decoder
	next int // packet index the decoder will consume next; -1 if unset
	// held stands in for the frame at next-1 where that is not the
	// decoder's reference: a concealed packet's frame, or, after a seek,
	// the frame the reader was at. It is nil once a packet decodes.
	held    *frame.Frame
	gray    *frame.Frame // what concealment holds before the first good frame; built on first use
	conceal bool
	rec     *obs.Recorder
}

// OpenReader opens path for frame-level reading.
func OpenReader(path string) (*Reader, error) {
	c, err := container.Open(path)
	if err != nil {
		return nil, err
	}
	cfg, err := CodecConfig(c.Info())
	if err != nil {
		c.Close()
		return nil, err
	}
	dec, err := codec.NewDecoder(cfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	dec.SetFramePool(frame.DefaultPool())
	return &Reader{c: c, dec: dec, next: -1}, nil
}

// CodecConfig is the one mapping from a stream header to the codec
// configuration that decodes or encodes it. It refuses a stream whose
// codec is not GV1.
func CodecConfig(info container.StreamInfo) (codec.Config, error) {
	if info.Codec != codec.FourCC {
		return codec.Config{}, fmt.Errorf("media: unsupported codec %q", info.Codec)
	}
	return codec.Config{Width: info.Width, Height: info.Height, Quality: info.Quality, GOP: info.GOP}, nil
}

// Close releases the reader's frame references and the underlying file.
func (r *Reader) Close() error {
	r.held.Release()
	r.gray.Release()
	r.held, r.gray = nil, nil
	r.dec.Reset()
	return r.c.Close()
}

// Info returns the stream description.
func (r *Reader) Info() container.StreamInfo { return r.c.Info() }

// Container exposes the underlying packet-level reader (used by the copy
// and smart-cut paths, and by probing tools).
func (r *Reader) Container() *container.Reader { return r.c }

// NumFrames returns the number of frames in the stream.
func (r *Reader) NumFrames() int { return r.c.NumPackets() }

// SetConceal switches the reader between fail-fast (default) and
// error-concealment mode. Concealing, a corrupt or undecodable packet is
// replaced by holding the last good frame (a mid-gray frame if the stream
// has produced none yet), counted as obs.EventConcealed — the behaviour
// of production decoders facing bitstream damage.
func (r *Reader) SetConceal(on bool) { r.conceal = on }

// SetRecorder attributes the reader's decodes (through the underlying
// codec decoder) and concealments to a per-request recorder.
func (r *Reader) SetRecorder(rec *obs.Recorder) {
	r.rec = rec
	r.dec.SetRecorder(rec)
}

// Concealable reports whether err is in the class concealment absorbs:
// payload corruption detected by the container CRC, undecodable
// bitstreams, or a missing reference after a damaged keyframe. Structural
// damage (unreadable header/index) and real I/O failures stay fatal.
func Concealable(err error) bool {
	return errors.Is(err, container.ErrCorruptPacket) ||
		errors.Is(err, codec.ErrUndecodable) ||
		errors.Is(err, codec.ErrNeedKeyframe)
}

// concealPacket substitutes for an unrecoverable packet by holding the last good
// frame in r.held — the decoder's reference, unless a stand-in is already
// held — or the reader's mid-gray frame when none exists yet.
func (r *Reader) concealPacket() {
	if r.held == nil {
		r.held = r.dec.Reference()
	}
	if r.held != nil {
		return
	}
	if r.gray == nil {
		info := r.c.Info()
		r.gray = frame.DefaultPool().Get(info.Width, info.Height, frame.FormatYUV420)
		r.gray.Fill(128, 128, 128)
	}
	r.held = r.gray.Retain()
}

// lastFrame returns the frame at next-1 with a reference for the caller,
// or nil when there is none.
func (r *Reader) lastFrame() *frame.Frame {
	if r.held != nil {
		return r.held.Retain()
	}
	return r.dec.Reference()
}

// FrameAtIndex returns the decoded frame for packet index i. Sequential
// access (i, i+1, ...) decodes each packet exactly once; random access
// restarts from the keyframe at or before i. Every packet decodes into
// the decoder's reference frame (codec.Decoder.Advance), and the frame at
// i is handed out as a reference to it, so a roll-forward builds no frame
// for the packets before i, and once the caller has released the frame
// the next packet reconstructs it in place. The frame is shared and must
// not be modified; the caller owns one reference to it (see Reader).
func (r *Reader) FrameAtIndex(i int) (*frame.Frame, error) {
	if i < 0 || i >= r.c.NumPackets() {
		return nil, fmt.Errorf("media: frame %d out of range [0,%d)", i, r.c.NumPackets())
	}
	if r.next >= 0 && i == r.next-1 {
		if fr := r.lastFrame(); fr != nil {
			return fr, nil
		}
	}
	// Seek policy: restart from the keyframe at or before the target when
	// the decoder has no state, sits past the target, or would roll
	// forward through a keyframe anyway (decoding the gap would be pure
	// waste).
	k, ok := r.c.KeyframeAtOrBefore(i)
	if !ok {
		return nil, errors.New("media: no keyframe at or before target")
	}
	if r.next < 0 || i < r.next || k > r.next {
		if r.held == nil {
			r.held = r.dec.Reference()
		}
		r.dec.Reset()
		r.next = k
	}
	for r.next <= i {
		data, err := r.c.ReadPacket(r.next)
		if err == nil {
			if err = r.dec.Advance(data); err == nil {
				r.held.Release()
				r.held = nil
			} else {
				err = fmt.Errorf("media: decode packet %d: %w", r.next, err)
			}
		}
		if err != nil {
			if !r.conceal || !Concealable(err) {
				r.next = -1 // the frame before r.next was never decoded: the next read seeks
				return nil, err
			}
			// Hold the last good frame in place of the damaged packet; the
			// decoder keeps its previous reference, so later P-frames decode
			// against a stale prediction (drift) until the next keyframe —
			// degraded output rather than a dead synthesis.
			r.concealPacket()
			r.rec.Inc(obs.EventConcealed)
		}
		r.next++
	}
	return r.lastFrame(), nil
}

// FrameAt returns the frame whose presentation time is exactly t.
func (r *Reader) FrameAt(t rational.Rat) (*frame.Frame, error) {
	i, err := r.IndexOfTime(t)
	if err != nil {
		return nil, err
	}
	return r.FrameAtIndex(i)
}

// IndexOfTime maps an exact frame time to its packet index.
func (r *Reader) IndexOfTime(t rational.Rat) (int, error) {
	pts, exact := r.c.Info().PTSOf(t)
	if !exact {
		return 0, fmt.Errorf("media: time %v is not on a frame boundary", t)
	}
	i, ok := r.c.IndexOfPTS(pts)
	if !ok {
		return 0, fmt.Errorf("media: no frame at time %v (pts %d)", t, pts)
	}
	return i, nil
}

// NextIndex returns the packet index a sequential read would decode next,
// or -1 before the first read. Cursor pools use this to match access
// patterns to decoder states.
func (r *Reader) NextIndex() int { return r.next }

// IndexRangeFor returns the packet index range [i0, i1) covering the
// half-open time interval iv, intersected with what the stream holds.
func (r *Reader) IndexRangeFor(iv rational.Interval) (i0, i1 int) {
	info := r.c.Info()
	n := r.c.NumPackets()
	lo, _ := info.PTSOf(iv.Lo)
	if exactLo := info.TimeOf(lo); exactLo.Less(iv.Lo) {
		lo++
	}
	hi, _ := info.PTSOf(iv.Hi)
	if exactHi := info.TimeOf(hi); exactHi.Less(iv.Hi) {
		hi++
	}
	first := int64(0)
	if n > 0 {
		first = r.c.Record(0).PTS
	}
	i0 = clamp(int(lo-first), 0, n)
	i1 = clamp(int(hi-first), 0, n)
	if i1 < i0 {
		i1 = i0
	}
	return i0, i1
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// CopyRange stream-copies packets [i0, i1) from src into dst. The first
// copied packet must be a keyframe (or follow ones already giving the
// decoder a reference — the caller asserts this by construction; plans
// always start copies at keyframes).
//
// When src is in concealment mode, a corrupt packet does not abort the
// copy: the last good frame at that position is decoded and re-encoded
// into the output instead (an encode, not a copy, in the recorder), so the
// result keeps its full length.
func CopyRange(dst Sink, src *Reader, i0, i1 int) error {
	if d := dst.Info().Mismatch(src.Info()); d != "" {
		return fmt.Errorf("media: streams incompatible for copy: %s", d)
	}
	for i := i0; i < i1; i++ {
		data, err := src.Container().ReadPacket(i)
		if err != nil {
			if !src.conceal || !Concealable(err) {
				return err
			}
			// FrameAtIndex is itself concealing: it rolls forward from the
			// preceding keyframe and substitutes the last good frame for the
			// damaged packet.
			fr, ferr := src.FrameAtIndex(i)
			if ferr != nil {
				return ferr
			}
			werr := dst.WriteFrame(fr)
			fr.Release()
			if werr != nil {
				return werr
			}
			continue
		}
		if err := dst.WriteRawPacket(src.Container().Record(i).Key, data); err != nil {
			return err
		}
	}
	return nil
}

// SmartCut writes the frames of src covering packet indexes [i0, i1) into
// dst, re-encoding only the prefix before the first keyframe in the range
// and stream-copying the rest — the paper's smart cut. If the source range
// contains no keyframe after i0 (sparse-keyframe content, like Q1 on ToS),
// the whole range is re-encoded and copied=0 is returned.
//
// It is a library primitive: the engine does not call it. The optimizer
// plans a smart cut as a render segment followed by a copy segment
// (opt.copyPass), so the head runs on a shard worker, reads through the GOP
// cache and is result-cached; only the benchmark's probe still times this
// function.
func SmartCut(dst Sink, src *Reader, i0, i1 int) (reencoded, copied int, err error) {
	if i0 < 0 || i1 > src.NumFrames() || i0 > i1 {
		return 0, 0, fmt.Errorf("media: smart cut range [%d,%d) out of bounds", i0, i1)
	}
	if d := dst.Info().Mismatch(src.Info()); d != "" {
		return 0, 0, fmt.Errorf("media: streams incompatible for smart cut: %s", d)
	}
	k := i1
	if i0 < i1 {
		if idx, ok := src.Container().NextKeyframeAfter(i0); ok && idx < i1 {
			k = idx
		}
	}
	for i := i0; i < k; i++ {
		fr, err := src.FrameAtIndex(i)
		if err != nil {
			return reencoded, copied, err
		}
		err = dst.WriteFrame(fr)
		fr.Release()
		if err != nil {
			return reencoded, copied, err
		}
		reencoded++
	}
	if k < i1 {
		if err := CopyRange(dst, src, k, i1); err != nil {
			return reencoded, copied, err
		}
		copied = i1 - k
	}
	return reencoded, copied, nil
}
