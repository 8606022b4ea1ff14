// Package codec implements GV1, a GOP-structured predictive video codec
// over YUV420 frames.
//
// GV1 stands in for H.264 in this reproduction. What matters to the V2V
// optimizer is not compression quality but the structural properties shared
// with every inter-frame codec:
//
//   - Keyframes (I-frames) are decodable in isolation; delta frames
//     (P-frames) require every frame since the previous keyframe, so
//     decoding must start at a keyframe boundary (a group of pictures).
//   - Encoding is much more expensive than decoding (prediction plus
//     entropy-coding search vs. entropy decode plus reconstruction).
//   - Copying an encoded packet is near memcpy speed.
//
// These asymmetries are exactly what stream copying and smart cuts exploit.
//
// Coding scheme: I-frames use left/top spatial prediction, P-frames use
// temporal prediction from the previously *reconstructed* frame (so encoder
// and decoder reconstructions match bit-for-bit). Residuals are uniformly
// quantized by Quality (Quality 1 uses modular arithmetic and is exactly
// lossless) and entropy-coded with DEFLATE (RFC 1951). GV1 writes its own
// DEFLATE (deflate.go: one block per packet, built for residual planes)
// and reads it with its own inflater (inflate.go: straight into the
// residual, the whole frame as the window), which also reads the packets
// of every earlier encoder, written by compress/flate's writer. A
// Quality-1 P-frame is reconstructed by runs: where the residual is zero
// the reference is copied, or, rolling forward in place, left untouched.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"v2v/internal/frame"
	"v2v/internal/obs"
)

// FourCC identifies the codec in container stream headers.
const FourCC = "GV10"

// Frame type markers, the first byte of every packet.
const (
	frameTypeI = 0x49 // 'I'
	frameTypeP = 0x50 // 'P'
)

// Config holds the coding parameters shared by encoder and decoder. Width
// and Height must be positive and even. Quality is the quantizer step
// (1 = lossless, larger = lossier and smaller). GOP is the keyframe
// interval in frames (1 = all-intra). Level changes no byte: it, its
// default and its range check stay only while bench/ names the field
// (ROADMAP item 5), and media.CodecConfig leaves it unset.
type Config struct {
	Width, Height int
	Quality       int
	GOP           int
	Level         int // changes no byte; goes with ROADMAP item 5
}

// Defaults fills unset fields: Quality 1, GOP 48, Level 6 (see Config).
func (c Config) Defaults() Config {
	if c.Quality <= 0 {
		c.Quality = 1
	}
	if c.GOP <= 0 {
		c.GOP = 48
	}
	if c.Level == 0 { // Level goes with ROADMAP item 5
		c.Level = 6
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("codec: invalid dimensions %dx%d", c.Width, c.Height)
	}
	if c.Width%2 != 0 || c.Height%2 != 0 {
		return fmt.Errorf("codec: dimensions %dx%d must be even", c.Width, c.Height)
	}
	if c.Quality < 1 || c.Quality > 64 {
		return fmt.Errorf("codec: quality %d out of range [1,64]", c.Quality)
	}
	if c.GOP < 1 {
		return fmt.Errorf("codec: GOP %d must be >= 1", c.GOP)
	}
	if c.Level < -2 || c.Level > 9 { // Level goes with ROADMAP item 5
		return fmt.Errorf("codec: flate level %d out of range", c.Level)
	}
	return nil
}

// Packet is one encoded frame.
type Packet struct {
	Key  bool
	Data []byte
}

// Encoder encodes a sequence of frames into packets. Not safe for
// concurrent use.
type Encoder struct {
	cfg      Config
	prev     *frame.Frame // previous reconstruction; nil before first frame
	spare    *frame.Frame // retired reconstruction, reused for the next one
	count    int          // frames since last keyframe
	forceKey bool
	resid    []byte
	zw       *deflater // DEFLATE writer state, from deflaters
	sparePkt []byte    // recycled packet buffer (see Recycle)
	rec      *obs.Recorder
}

// NewEncoder returns an encoder for the given configuration. The encoder
// takes its working memory (the DEFLATE writer's, the residual buffer) on
// the first Encode, so a sink that only splices packets never pays for it.
func NewEncoder(cfg Config) (*Encoder, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Encoder{cfg: cfg}, nil
}

// Close returns the encoder's DEFLATE writer state (hash table, token
// buffer) for reuse by a later encoder. An encoder dropped without it
// leaves the state to the garbage collector; an Encode after Close takes
// one again.
func (e *Encoder) Close() {
	if e.zw != nil {
		deflaters.Put(e.zw)
		e.zw = nil
	}
}

// Config returns the encoder's configuration (with defaults applied).
func (e *Encoder) Config() Config { return e.cfg }

// ForceKeyframe makes the next encoded frame an I-frame. Smart cuts use
// this to restart prediction at splice boundaries.
func (e *Encoder) ForceKeyframe() { e.forceKey = true }

// SetRecorder attributes this encoder's work to a per-request recorder.
// The process-wide encode-stage metrics are updated either way.
func (e *Encoder) SetRecorder(rec *obs.Recorder) { e.rec = rec }

// Encode compresses fr and returns its packet. fr must be YUV420 with the
// configured dimensions.
func (e *Encoder) Encode(fr *frame.Frame) (Packet, error) {
	if fr.Format != frame.FormatYUV420 || fr.W != e.cfg.Width || fr.H != e.cfg.Height {
		return Packet{}, fmt.Errorf("codec: frame %dx%d %v does not match config %dx%d yuv420",
			fr.W, fr.H, fr.Format, e.cfg.Width, e.cfg.Height)
	}
	encStart := time.Now()
	if e.zw == nil {
		e.zw = deflaters.Get().(*deflater)
	}
	if e.resid == nil {
		e.resid = make([]byte, frame.FormatYUV420.Size(e.cfg.Width, e.cfg.Height))
	}
	isKey := e.prev == nil || e.count >= e.cfg.GOP || e.forceKey
	e.forceKey = false

	// Reconstructions ping-pong between two buffers: the retiring prev
	// becomes the spare for the encode after this one. Both frames are
	// internal (never returned), so reuse is safe and the steady-state
	// encode loop allocates nothing for reconstructions.
	recon := e.spare
	e.spare = nil
	if recon == nil {
		recon = frame.New(e.cfg.Width, e.cfg.Height, frame.FormatYUV420)
	}
	if isKey {
		e.encodeIntra(fr, recon)
	} else {
		e.encodePredicted(fr, recon)
	}
	if e.cfg.Quality == 1 {
		copy(recon.Pix, fr.Pix) // lossless: the reconstruction is the source
	}

	// The packet is the frame type and the compressed residual. Its
	// buffer comes from the recycle slot when the previous packet was
	// returned via Recycle, and is grown once to the planned size
	// otherwise; continuous-encode paths (media writers, operator-boundary
	// materialization) reach zero steady-state allocations per packet
	// this way.
	ftype := byte(frameTypeP)
	if isKey {
		ftype = frameTypeI
	}
	n := e.zw.plan(e.resid)
	data := e.zw.write(append(slices.Grow(e.sparePkt[:0], 1+n), ftype), e.resid)
	e.sparePkt = nil

	e.spare = e.prev
	e.prev = recon
	if isKey {
		e.count = 1
	} else {
		e.count++
	}
	e.rec.StageObserve(obs.StageEncode, 1, int64(len(data)), time.Since(encStart))
	return Packet{Key: isKey, Data: data}, nil
}

// Recycle hands a packet's buffer back to the encoder for reuse by the
// next Encode. Only recycle packets produced by this encoder whose bytes
// have been fully consumed (written to a container or stream, or
// decoded); the caller must not touch pkt.Data afterwards. Packets that
// are retained — result-cache fills, shard delivery queues — must never
// be recycled.
func (e *Encoder) Recycle(pkt Packet) {
	if cap(pkt.Data) > cap(e.sparePkt) {
		e.sparePkt = pkt.Data[:0]
	}
}

// encodeIntra writes the I-frame residual for fr into e.resid and, when
// lossy, the reconstruction into recon.
//
//v2v:hotpath
func (e *Encoder) encodeIntra(fr, recon *frame.Frame) {
	q := e.cfg.Quality
	off := 0
	for pi := 0; pi < 3; pi++ {
		w, h := planeDims(e.cfg, pi)
		src, res := fr.Pix[off:off+w*h], e.resid[off:off+w*h]
		if q == 1 {
			intraResidual(res, src, w, h)
		} else {
			intraPlaneLossy(src, recon.Pix[off:off+w*h], res, w, h, q)
		}
		off += w * h
	}
}

// intraResidual writes one plane's lossless I-frame residual: each pixel
// minus its left neighbour (the pixel above for the first column, 128 for
// the top-left one). The reconstruction is the source, so a row's residual
// is the row minus itself shifted by one — a lane subtraction.
//
//v2v:hotpath
func intraResidual(resid, src []byte, w, h int) {
	above := byte(128)
	for y := 0; y < h; y++ {
		s, r := src[y*w:(y+1)*w], resid[y*w:(y+1)*w]
		r[0] = s[0] - above
		above = s[0]
		subBytes(r[1:], s[1:], s[:w-1])
	}
}

// intraPlaneLossy codes one I-frame plane at Quality > 1, predicting from
// the reconstructed neighbour; the prediction is carried along the row.
//
//v2v:hotpath
func intraPlaneLossy(src, recon, resid []byte, w, h, q int) {
	pred := 128
	for y := 0; y < h; y++ {
		s, rc, rs := src[y*w:(y+1)*w], recon[y*w:(y+1)*w], resid[y*w:(y+1)*w]
		for x := range s {
			rs[x], rc[x] = quantize(int(s[x]), pred, q)
			pred = int(rc[x])
		}
		pred = int(rc[0]) // the next row's first pixel predicts from the one above it
	}
}

// encodePredicted writes the P-frame residual (vs. e.prev) into e.resid
// and, when lossy, the reconstruction into recon.
//
//v2v:hotpath
func (e *Encoder) encodePredicted(fr, recon *frame.Frame) {
	q := e.cfg.Quality
	src, prev, rec := fr.Pix, e.prev.Pix, recon.Pix
	if q == 1 {
		subBytes(e.resid, src, prev)
		return
	}
	for i := range src {
		e.resid[i], rec[i] = quantize(int(src[i]), int(prev[i]), q)
	}
}

// quantize codes cur against pred with step q > 1, returning the
// zigzag-coded quantized delta and the reconstructed value.
func quantize(cur, pred, q int) (resid, recon byte) {
	d := cur - pred
	var qv int
	if d >= 0 {
		qv = (d + q/2) / q
	} else {
		qv = -((-d + q/2) / q)
	}
	if qv > 127 {
		qv = 127
	} else if qv < -127 {
		qv = -127
	}
	return zigzag(qv), clamp8(pred + qv*q)
}

func clamp8(v int) byte {
	if v < 0 {
		return 0
	} else if v > 255 {
		return 255
	}
	return byte(v)
}

// The Quality-1 kernels do mod-256 arithmetic on eight pixels per uint64.
// So that no carry or borrow crosses a byte, the low seven bits of every
// lane are added on their own (subtracted from a minuend whose bit 7 is
// forced to 1) and the lane's true bit 7 is xored back in. Derivation in
// docs/PERFORMANCE.md, "Codec round two"; oracle in kernel_test.go.
const (
	lo7 = 0x7f7f7f7f7f7f7f7f
	hi1 = 0x8080808080808080
)

// addInPlace adds resid to dst (mod 256), eight lanes per word, and skips
// each 32-byte block whose residual is zero — most of a P-frame's are —
// leaving those pixels unread and unwritten.
//
//v2v:hotpath
func addInPlace(dst, resid []byte) {
	n := len(dst)
	resid = resid[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		r := (*[32]byte)(resid[i : i+32])
		r0, r1 := binary.LittleEndian.Uint64(r[0:]), binary.LittleEndian.Uint64(r[8:])
		r2, r3 := binary.LittleEndian.Uint64(r[16:]), binary.LittleEndian.Uint64(r[24:])
		if r0|r1|r2|r3 == 0 {
			continue
		}
		d := (*[32]byte)(dst[i : i+32])
		binary.LittleEndian.PutUint64(d[0:], addLanes(binary.LittleEndian.Uint64(d[0:]), r0))
		binary.LittleEndian.PutUint64(d[8:], addLanes(binary.LittleEndian.Uint64(d[8:]), r1))
		binary.LittleEndian.PutUint64(d[16:], addLanes(binary.LittleEndian.Uint64(d[16:]), r2))
		binary.LittleEndian.PutUint64(d[24:], addLanes(binary.LittleEndian.Uint64(d[24:]), r3))
	}
	for ; i < n; i++ {
		dst[i] += resid[i]
	}
}

// addLanes adds eight byte lanes mod 256.
func addLanes(x, y uint64) uint64 { return ((x & lo7) + (y & lo7)) ^ ((x ^ y) & hi1) }

// subBytes sets dst[i] = a[i] - b[i] (mod 256) for i < len(dst).
//
//v2v:hotpath
func subBytes(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(a[i : i+8])
		y := binary.LittleEndian.Uint64(b[i : i+8])
		binary.LittleEndian.PutUint64(dst[i:i+8], ((x|hi1)-(y&lo7))^((x^^y)&hi1))
	}
	for ; i < n; i++ {
		dst[i] = a[i] - b[i]
	}
}

func zigzag(v int) byte {
	if v >= 0 {
		return byte(v << 1)
	}
	return byte(-v<<1 - 1)
}

func unzigzag(b byte) int {
	if b&1 == 0 {
		return int(b >> 1)
	}
	return -int(b>>1) - 1
}

// Decoder decodes packets back into frames. Decoding must start at a
// keyframe; feeding a P-packet first returns ErrNeedKeyframe. Not safe for
// concurrent use.
type Decoder struct {
	cfg  Config
	prev *frame.Frame // the reconstruction the next P-packet predicts from
	rec  *obs.Recorder
	pool *frame.Pool
	// The inflater's tables and the residual it inflates into are made
	// by the first packet: a reader opened only to copy packets never
	// pays for them. A damaged packet leaves nothing behind in either
	// that a later packet reads, so the decoder outlives bad packets —
	// which concealment relies on.
	zr    *inflater
	resid []byte
}

// ErrNeedKeyframe is returned when a P-frame arrives with no reference —
// the structural constraint that forces plans to open GOPs at keyframes.
var ErrNeedKeyframe = errors.New("codec: packet stream must start at a keyframe")

// ErrUndecodable marks packets whose bitstream is structurally damaged
// (unknown frame type, corrupt, truncated or mis-sized DEFLATE payload).
// The executor's error-concealment mode matches this class to substitute
// the last good frame instead of failing the synthesis.
var ErrUndecodable = errors.New("codec: undecodable packet")

// NewDecoder returns a decoder for the given configuration.
func NewDecoder(cfg Config) (*Decoder, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Decoder{cfg: cfg}, nil
}

// Reset drops the reference frame, e.g. before seeking to a keyframe,
// releasing it back to the frame pool when one is attached.
func (d *Decoder) Reset() {
	d.prev.Release()
	d.prev = nil
}

// SetRecorder attributes this decoder's work to a per-request recorder.
// The process-wide decode-stage metrics are updated either way.
func (d *Decoder) SetRecorder(rec *obs.Recorder) { d.rec = rec }

// SetFramePool makes the decoder allocate output frames from p. Pooled
// output changes the ownership contract: the caller must Release each
// decoded frame when done with it. The decoder holds its own reference to
// the latest frame for P-frame prediction, so callers may Release in any
// order relative to later decodes; once all have, the next packet is
// reconstructed in it.
func (d *Decoder) SetFramePool(p *frame.Pool) { d.pool = p }

// Decode decompresses one packet and returns its frame, which the caller
// owns a reference to: without a frame pool, one never written again.
func (d *Decoder) Decode(data []byte) (*frame.Frame, error) {
	if err := d.Advance(data); err != nil {
		return nil, err
	}
	return d.prev.Retain(), nil
}

// Advance decodes one packet into the decoder's reference frame and hands
// out no frame: the roll-forward from a keyframe to the frame a reader
// wants. It reconstructs in place — a P-frame's zero residual blocks are
// not touched — when no caller holds the frame it replaces (an unpooled
// frame always counts as held), else in a new frame. It records one
// decode and fails as Decode does, leaving the reference as it was.
func (d *Decoder) Advance(data []byte) error {
	decStart := time.Now()
	if len(data) < 1 {
		return fmt.Errorf("%w: empty packet", ErrUndecodable)
	}
	ftype := data[0]
	if ftype != frameTypeI && ftype != frameTypeP {
		return fmt.Errorf("%w: unknown frame type 0x%02x", ErrUndecodable, ftype)
	}
	if ftype == frameTypeP && d.prev == nil {
		return ErrNeedKeyframe
	}
	if d.zr == nil {
		d.zr = new(inflater)
		d.resid = make([]byte, frame.FormatYUV420.Size(d.cfg.Width, d.cfg.Height))
	}
	if err := d.zr.inflate(data[1:], d.resid); err != nil {
		return fmt.Errorf("%w: decompress: %w", ErrUndecodable, err)
	}
	if d.prev.Exclusive() {
		d.reconstruct(ftype, d.prev.Pix)
	} else {
		// Pooled frames carry stale pixels; reconstruct writes every byte.
		var out *frame.Frame
		if d.pool != nil {
			out = d.pool.Get(d.cfg.Width, d.cfg.Height, frame.FormatYUV420)
		} else {
			out = frame.New(d.cfg.Width, d.cfg.Height, frame.FormatYUV420)
		}
		d.reconstruct(ftype, out.Pix)
		d.prev.Release()
		d.prev = out
	}
	d.rec.StageObserve(obs.StageDecode, 1, int64(len(d.prev.Pix)), time.Since(decStart))
	return nil
}

// Reference returns the decoder's reference frame — the last packet's
// reconstruction, which the next P-packet predicts from — with a
// reference the caller owns, or nil when there is none.
func (d *Decoder) Reference() *frame.Frame { return d.prev.Retain() }

// reconstruct builds the frame of type ftype from d.resid into out,
// predicting a P-frame from d.prev; out may be d.prev's own pixels.
func (d *Decoder) reconstruct(ftype byte, out []byte) {
	q := d.cfg.Quality
	switch {
	case ftype == frameTypeI:
		off := 0
		for pi := 0; pi < 3; pi++ {
			w, h := planeDims(d.cfg, pi)
			if q == 1 {
				intraReconstruct(d.resid[off:off+w*h], out[off:off+w*h], w, h)
			} else {
				intraReconstructLossy(d.resid[off:off+w*h], out[off:off+w*h], w, h, q)
			}
			off += w * h
		}
	case q == 1:
		// Zero runs of the residual copy the reference: all of it, then
		// the rest is added.
		if &out[0] != &d.prev.Pix[0] {
			copy(out, d.prev.Pix)
		}
		addInPlace(out, d.resid)
	default:
		prev := d.prev.Pix
		for i := range out {
			out[i] = clamp8(int(prev[i]) + unzigzag(d.resid[i])*q)
		}
	}
}

// intraReconstruct undoes intraResidual: each row is a running byte sum
// of its residual, seeded by the pixel above its first column (128 for the
// top row).
//
//v2v:hotpath
func intraReconstruct(resid, out []byte, w, h int) {
	acc := byte(128)
	for y := 0; y < h; y++ {
		r, o := resid[y*w:(y+1)*w], out[y*w:(y+1)*w]
		for x := range r {
			acc += r[x]
			o[x] = acc
		}
		acc = o[0]
	}
}

// intraReconstructLossy undoes intraPlaneLossy the same way.
//
//v2v:hotpath
func intraReconstructLossy(resid, out []byte, w, h, q int) {
	pred := 128
	for y := 0; y < h; y++ {
		r, o := resid[y*w:(y+1)*w], out[y*w:(y+1)*w]
		for x := range r {
			o[x] = clamp8(pred + unzigzag(r[x])*q)
			pred = int(o[x])
		}
		pred = int(o[0])
	}
}

func planeDims(cfg Config, plane int) (w, h int) {
	if plane == 0 {
		return cfg.Width, cfg.Height
	}
	return cfg.Width / 2, cfg.Height / 2
}
