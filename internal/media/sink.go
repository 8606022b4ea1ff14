package media

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"v2v/internal/codec"
	"v2v/internal/container"
	"v2v/internal/frame"
	"v2v/internal/obs"
)

// Sink abstracts the destination of a synthesis run. Writer is its one
// implementation, for a seekable VMF file and a progressive VMS stream
// alike. The execution engine writes only through this interface, which is
// what lets V2V begin delivering output "within seconds" — packets flow
// as segments complete, before the whole result exists.
type Sink interface {
	// Info describes the output stream format.
	Info() container.StreamInfo
	// WriteFrame encodes fr as the next output frame.
	WriteFrame(fr *frame.Frame) error
	// WriteRawPacket splices an already-encoded packet (stream copy).
	WriteRawPacket(key bool, data []byte) error
	// WriteEncodedFrame splices a packet encoded on the sink's behalf by
	// an external encoder (parallel shards), which counted the encode.
	WriteEncodedFrame(key bool, data []byte) error
	// SetRecorder attributes the sink's encode and packet-copy work to a
	// per-request recorder from here on.
	SetRecorder(rec *obs.Recorder)
	// Flush marks a delivery point — the container header, then wherever
	// the executor has written every packet that is ready, and each
	// segment's end — and passes it to a stream destination that has a
	// Flush method. A Flush with no packet written since the previous one
	// is dropped: no offset is flushed twice. A file sink has nothing to
	// deliver early.
	Flush()
	// FirstPacket reports when the first packet was written; zero before.
	FirstPacket() time.Time
	// Close finalizes the output.
	Close() error
	// Abort discards the output without finalizing it: a file sink removes
	// its temp file and never creates the target path; a stream sink ends
	// with a typed error trailer carrying cause (best-effort), so consumers
	// tell a producer failure from a cut connection.
	Abort(cause error) error
}

var _ Sink = (*Writer)(nil)

// vmsMagic introduces the progressive stream format: like VMF but with
// per-packet length framing instead of a trailing index, so a consumer
// can decode while the producer is still synthesizing.
const vmsMagic = "VMS1"

// Packet flag bytes. 0 and 1 mark non-key and key data packets; 2 marks
// the typed end-of-stream trailer whose body is a JSON StreamTrailer.
const (
	flagNonKey  = 0
	flagKey     = 1
	flagTrailer = 2
)

// maxTrailerLen bounds the trailer body a reader will accept. Trailers
// carry a short JSON status, never media data.
const maxTrailerLen = 1 << 16

// Typed end-of-stream errors. A consumer that reads a VMS stream to the
// end sees one of three outcomes: clean io.EOF (trailer status "ok"), an
// error wrapping ErrStreamFailed (the producer finished the header but
// the synthesis failed — the trailer carries the remote error text), or
// an error wrapping ErrTruncatedStream (the bytes stopped without any
// trailer: a crashed producer or a cut connection) — or, for a damaged
// stream such as one with a zero-length packet header, none of them.
var (
	ErrTruncatedStream = errors.New("media: stream truncated before end-of-stream trailer")
	ErrStreamFailed    = errors.New("media: stream producer reported failure")
)

// Writer errors, built once: the packet path returns them without
// allocating.
var (
	errWriterClosed  = errors.New("media: writer closed")
	errWriterAborted = errors.New("media: writer aborted")
	errFirstNotKey   = errors.New("media: first packet must be a keyframe")
	errEmptyPacket   = errors.New("media: empty packet")
)

// StreamTrailer is the typed end-of-stream marker. Status is "ok" for a
// complete stream or "error" when the producer failed after the header
// was already out; Packets echoes the packet count so readers can
// cross-check; Error carries the producer's message on failure.
type StreamTrailer struct {
	Status  string `json:"status"`
	Packets int64  `json:"packets"`
	Error   string `json:"error,omitempty"`
}

// Writer encodes frames, or splices already-encoded packets, into one
// output video: a VMF file (CreateWriter) or a VMS stream
// (NewStreamWriter). It owns the encoder, the PTS and the splice rule —
// after a splice the next encoded frame is forced to be a keyframe, so
// the output stays decodable; a framer lays out the bytes.
// Not safe for concurrent use.
type Writer struct {
	out      framer
	info     container.StreamInfo
	enc      *codec.Encoder
	pts      int64
	flushed  int64 // pts at the last flush; -1 before the first
	spliced  bool  // a packet was spliced since the last encode
	rec      *obs.Recorder
	first    time.Time
	closed   bool
	closeErr error
}

// framer lays out one output format's bytes.
type framer interface {
	// packet writes one packet; the Writer has checked it.
	packet(pts int64, key bool, data []byte) error
	flush()
	// close finalizes the output after packets packets; abort discards it.
	close(packets int64) error
	abort(cause error, packets int64) error
}

// CreateWriter opens path for writing a VMF file described by info. The
// bytes land at <path>.tmp until Close renames the finished file into
// place, so a failed synthesis never leaves a file at path.
func CreateWriter(path string, info container.StreamInfo) (*Writer, error) {
	return newWriter(info, func(info container.StreamInfo) (framer, error) {
		c, err := container.Create(path, info)
		if err != nil {
			return nil, err
		}
		return vmfFramer{c}, nil
	})
}

// NewStreamWriter emits the VMS stream header to w and returns a writer
// that frames each packet with its length as it is written.
func NewStreamWriter(w io.Writer, info container.StreamInfo) (*Writer, error) {
	return newWriter(info, func(info container.StreamInfo) (framer, error) {
		if _, err := container.WriteHeader(w, vmsMagic, info); err != nil {
			return nil, fmt.Errorf("media: stream header: %w", err)
		}
		f := &vmsFramer{w: w}
		f.flusher, _ = w.(interface{ Flush() })
		return f, nil
	})
}

// newWriter builds the encoder info describes and opens the output, whose
// header validates info, with the encoder's defaulted parameters, so
// readers build matching decoders.
func newWriter(info container.StreamInfo, open func(container.StreamInfo) (framer, error)) (*Writer, error) {
	if info.Codec == "" {
		info.Codec = codec.FourCC
	}
	cfg, err := CodecConfig(info)
	if err != nil {
		return nil, err
	}
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	ec := enc.Config()
	info.Quality, info.GOP = ec.Quality, ec.GOP
	out, err := open(info)
	if err != nil {
		enc.Close()
		return nil, err
	}
	return &Writer{out: out, info: info, enc: enc, flushed: -1}, nil
}

// Info returns the stream description being written.
func (w *Writer) Info() container.StreamInfo { return w.info }

// FirstPacket reports when the first packet was written; zero before.
func (w *Writer) FirstPacket() time.Time { return w.first }

// SetRecorder attributes the writer's encode and packet-copy work to a
// per-request recorder (encodes are forwarded to the codec encoder).
func (w *Writer) SetRecorder(rec *obs.Recorder) {
	w.rec = rec
	w.enc.SetRecorder(rec)
}

// Flush passes a delivery point to the output unless nothing was written
// since the last (see Sink).
func (w *Writer) Flush() {
	if !w.closed && w.flushed != w.pts {
		w.flushed = w.pts
		w.out.flush()
	}
}

// put checks one packet against the stream's rules, hands it to the
// framer and advances the PTS.
func (w *Writer) put(key bool, data []byte) error {
	switch {
	case w.closed:
		return errWriterClosed
	case w.pts == 0 && !key:
		return errFirstNotKey
	case len(data) == 0:
		// A VMS reader refuses a zero-length packet header.
		return errEmptyPacket
	}
	if err := w.out.packet(w.pts, key, data); err != nil {
		return err
	}
	if w.pts == 0 {
		w.first = time.Now()
	}
	w.pts++
	return nil
}

// WriteFrame encodes fr as the next frame of the stream.
func (w *Writer) WriteFrame(fr *frame.Frame) error {
	if w.closed {
		return errWriterClosed
	}
	if w.spliced {
		// The encoder's prediction state does not match the spliced
		// packets; restart the GOP.
		w.enc.ForceKeyframe()
		w.spliced = false
	}
	pkt, err := w.enc.Encode(fr)
	if err != nil {
		return err
	}
	err = w.put(pkt.Key, pkt.Data)
	w.enc.Recycle(pkt) // the framer wrote the bytes; reuse the buffer
	return err
}

// WriteRawPacket splices an already-encoded packet into the stream. The
// caller is responsible for packet ordering starting at a keyframe; the
// writer refuses a stream that does not start with one.
//
//v2v:hotpath
func (w *Writer) WriteRawPacket(key bool, data []byte) error {
	copyStart := time.Now()
	if err := w.put(key, data); err != nil {
		return err
	}
	w.rec.StageObserve(obs.StageCopy, 1, int64(len(data)), time.Since(copyStart))
	w.spliced = true
	return nil
}

// WriteEncodedFrame splices a packet that was encoded on the writer's
// behalf by an external encoder (parallel shards encode their chunks with
// their own encoder instances). That encoder counted the encode; the
// splice is not a copy.
//
//v2v:hotpath
func (w *Writer) WriteEncodedFrame(key bool, data []byte) error {
	if err := w.put(key, data); err != nil {
		return err
	}
	w.spliced = true
	return nil
}

// Close finalizes the output: a VMF file gets its index and is renamed
// into place; a VMS stream ends with the "ok" trailer. Closing again
// returns the first outcome.
func (w *Writer) Close() error {
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	w.enc.Close()
	w.closeErr = w.out.close(w.pts)
	return w.closeErr
}

// Abort discards the output (see Sink). A no-op after Close or Abort; a
// later Close reports the abort.
func (w *Writer) Abort(cause error) error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.enc.Close()
	w.closeErr = errWriterAborted
	return w.out.abort(cause, w.pts)
}

// vmfFramer writes a VMF file through the container package, which keeps
// the index and the temp-file-then-rename protocol.
type vmfFramer struct{ c *container.Writer }

func (f vmfFramer) packet(pts int64, key bool, data []byte) error {
	return f.c.WritePacket(pts, key, data)
}

func (vmfFramer) flush()                     {}
func (f vmfFramer) close(int64) error        { return f.c.Close() }
func (f vmfFramer) abort(error, int64) error { return f.c.Abort() }

// vmsFramer writes the VMS progressive format: each packet behind a 5-byte
// prefix (little-endian length, flag byte), then a typed trailer.
type vmsFramer struct {
	w       io.Writer
	flusher interface{ Flush() } // w, if it can flush
	head    [5]byte              // the packet prefix, reused for every packet
}

//v2v:hotpath
func (f *vmsFramer) packet(_ int64, key bool, data []byte) error {
	binary.LittleEndian.PutUint32(f.head[:4], uint32(len(data)))
	f.head[4] = flagNonKey
	if key {
		f.head[4] = flagKey
	}
	if _, err := f.w.Write(f.head[:]); err != nil {
		return fmt.Errorf("media: stream packet: %w", err)
	}
	if _, err := f.w.Write(data); err != nil {
		return fmt.Errorf("media: stream packet: %w", err)
	}
	return nil
}

func (f *vmsFramer) flush() {
	if f.flusher != nil {
		f.flusher.Flush()
	}
}

func (f *vmsFramer) close(packets int64) error {
	return f.trailer(StreamTrailer{Status: "ok", Packets: packets})
}

// abort writes the typed error trailer. The write is best-effort: if the
// transport is the thing that failed, the consumer sees truncation
// instead, which is still accurate.
func (f *vmsFramer) abort(cause error, packets int64) error {
	tr := StreamTrailer{Status: "error", Packets: packets}
	if cause != nil {
		tr.Error = cause.Error()
	}
	return f.trailer(tr)
}

func (f *vmsFramer) trailer(tr StreamTrailer) error {
	body, err := json.Marshal(tr)
	if err != nil {
		return fmt.Errorf("media: stream trailer: %w", err)
	}
	binary.LittleEndian.PutUint32(f.head[:4], uint32(len(body)))
	f.head[4] = flagTrailer
	if _, err := f.w.Write(f.head[:]); err != nil {
		return fmt.Errorf("media: stream trailer: %w", err)
	}
	if _, err := f.w.Write(body); err != nil {
		return fmt.Errorf("media: stream trailer: %w", err)
	}
	return nil
}

// StreamReader consumes the VMS progressive format, decoding frames as
// packets arrive.
type StreamReader struct {
	r       io.Reader
	dec     *codec.Decoder
	info    container.StreamInfo
	done    bool  // a trailer was read
	err     error // NextPacket's terminal result, io.EOF included
	trailer StreamTrailer
}

// NewStreamReader parses the stream header. It refuses a stream whose
// codec is not GV1.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	info, _, err := container.ReadHeader(r, vmsMagic)
	if err != nil {
		return nil, fmt.Errorf("media: stream header: %w", err)
	}
	cfg, err := CodecConfig(info)
	if err != nil {
		return nil, err
	}
	dec, err := codec.NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	return &StreamReader{r: r, dec: dec, info: info}, nil
}

// Info returns the stream description.
func (s *StreamReader) Info() container.StreamInfo { return s.info }

// NextPacket reads one packet; io.EOF signals a clean end of stream (the
// typed "ok" trailer). A stream that stops mid-flight returns an error
// wrapping ErrTruncatedStream; a typed error trailer returns an error
// wrapping ErrStreamFailed carrying the producer's message. Every error is
// terminal: each later call returns it again.
func (s *StreamReader) NextPacket() (key bool, data []byte, err error) {
	if s.err != nil {
		return false, nil, s.err
	}
	key, data, s.err = s.nextPacket()
	return key, data, s.err
}

func (s *StreamReader) nextPacket() (key bool, data []byte, err error) {
	var head [5]byte
	if _, err := io.ReadFull(s.r, head[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return false, nil, fmt.Errorf("media: stream packet header: %w", ErrTruncatedStream)
		}
		return false, nil, fmt.Errorf("media: stream packet header: %w", err)
	}
	size := binary.LittleEndian.Uint32(head[:4])
	if head[4] == flagTrailer {
		return false, nil, s.readTrailer(size)
	}
	if size == 0 || size > 1<<30 {
		return false, nil, fmt.Errorf("media: implausible packet size %d", size)
	}
	if data, err = readBody(s.r, int(size)); err != nil {
		return false, nil, fmt.Errorf("media: stream packet body: %w: %w", ErrTruncatedStream, err)
	}
	return head[4] == flagKey, data, nil
}

// readTrailer consumes and interprets a typed end-of-stream trailer.
func (s *StreamReader) readTrailer(size uint32) error {
	if size == 0 || size > maxTrailerLen {
		return fmt.Errorf("media: implausible stream trailer length %d", size)
	}
	body, err := readBody(s.r, int(size))
	if err != nil {
		return fmt.Errorf("media: stream trailer body: %w: %w", ErrTruncatedStream, err)
	}
	var tr StreamTrailer
	if err := json.Unmarshal(body, &tr); err != nil {
		return fmt.Errorf("media: stream trailer: %w", err)
	}
	s.trailer, s.done = tr, true
	if tr.Status != "ok" {
		if tr.Error != "" {
			return fmt.Errorf("%w: %s", ErrStreamFailed, tr.Error)
		}
		return ErrStreamFailed
	}
	return io.EOF
}

// readBody reads the size-byte body that follows a packet or trailer
// header. It allocates as the bytes arrive — 1 MiB at first, then never
// more than has already arrived — so a corrupt length field costs at most
// twice the memory the stream delivers.
// A stream that ends first returns io.ErrUnexpectedEOF, never io.EOF: a
// stream cut right after a header must not read as a clean end to callers
// that test errors.Is(err, io.EOF) first.
func readBody(r io.Reader, size int) ([]byte, error) {
	data := make([]byte, 0, min(size, 1<<20))
	for len(data) < size {
		n := len(data)
		data = append(data, make([]byte, min(size-n, max(n, 1<<20)))...)
		if _, err := io.ReadFull(r, data[n:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return data, nil
}

// Trailer returns the typed end-of-stream trailer, if one was read.
func (s *StreamReader) Trailer() (StreamTrailer, bool) { return s.trailer, s.done }

// NextFrame reads and decodes the next frame; io.EOF at end of stream.
func (s *StreamReader) NextFrame() (*frame.Frame, error) {
	_, data, err := s.NextPacket()
	if err != nil {
		return nil, err
	}
	return s.dec.Decode(data)
}
