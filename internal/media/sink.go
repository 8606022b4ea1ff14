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

// Sink abstracts the destination of a synthesis run: a seekable VMF file
// (Writer) or a progressive stream (StreamWriter). The execution engine
// writes only through this interface, which is what lets V2V begin
// delivering output "within seconds" — packets flow as segments complete,
// before the whole result exists.
type Sink interface {
	// Info describes the output stream format.
	Info() container.StreamInfo
	// WriteFrame encodes fr as the next output frame.
	WriteFrame(fr *frame.Frame) error
	// WriteRawPacket splices an already-encoded packet (stream copy).
	WriteRawPacket(key bool, data []byte) error
	// WriteEncodedFrame splices a packet encoded on the sink's behalf by
	// an external encoder (parallel shards); counts as an encode.
	WriteEncodedFrame(key bool, data []byte) error
	// FramesWritten returns the number of packets written so far.
	FramesWritten() int64
	// Stats returns cumulative write statistics.
	Stats() Stats
	// Close finalizes the output.
	Close() error
	// Abort discards the output without finalizing it: a file sink removes
	// its temp file and never creates the target path; a stream sink stops
	// without the end-of-stream marker, so consumers see truncation rather
	// than a spuriously clean end.
	Abort() error
}

var (
	_ Sink = (*Writer)(nil)
	_ Sink = (*StreamWriter)(nil)
)

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
// end sees exactly one of three outcomes: clean io.EOF (trailer status
// "ok" or the legacy zero-length header), an error wrapping
// ErrStreamFailed (the producer finished the header but the synthesis
// failed — the trailer carries the remote error text), or an error
// wrapping ErrTruncatedStream (the bytes stopped without any trailer:
// a crashed producer or a cut connection).
var (
	ErrTruncatedStream = errors.New("media: stream truncated before end-of-stream trailer")
	ErrStreamFailed    = errors.New("media: stream producer reported failure")
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

// StreamWriter writes the VMS progressive format to any io.Writer. Not
// safe for concurrent use.
type StreamWriter struct {
	w       io.Writer
	enc     *codec.Encoder
	info    container.StreamInfo
	pts     int64
	spliced bool
	stats   Stats
	rec     *obs.Recorder
	closed  bool
}

// NewStreamWriter emits the stream header and returns a progressive sink.
func NewStreamWriter(w io.Writer, info container.StreamInfo) (*StreamWriter, error) {
	if info.Codec == "" {
		info.Codec = codec.FourCC
	}
	if info.Codec != codec.FourCC {
		return nil, fmt.Errorf("media: unsupported codec %q", info.Codec)
	}
	enc, err := codec.NewEncoder(codec.Config{
		Width: info.Width, Height: info.Height,
		Quality: info.Quality, GOP: info.GOP, Level: info.Level,
	})
	if err != nil {
		return nil, err
	}
	ec := enc.Config()
	info.Quality, info.GOP, info.Level = ec.Quality, ec.GOP, ec.Level
	hdr, err := json.Marshal(info)
	if err != nil {
		return nil, err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(hdr)))
	for _, b := range [][]byte{[]byte(vmsMagic), lenBuf[:], hdr} {
		if _, err := w.Write(b); err != nil {
			return nil, fmt.Errorf("media: stream header: %w", err)
		}
	}
	return &StreamWriter{w: w, enc: enc, info: info}, nil
}

// Info returns the stream description.
func (s *StreamWriter) Info() container.StreamInfo { return s.info }

// FramesWritten returns the number of packets emitted.
func (s *StreamWriter) FramesWritten() int64 { return s.pts }

// Stats returns cumulative write statistics.
func (s *StreamWriter) Stats() Stats { return s.stats }

// SetRecorder attributes the stream writer's encode and packet-copy work
// to a per-request recorder (encodes are forwarded to the codec encoder).
func (s *StreamWriter) SetRecorder(rec *obs.Recorder) {
	s.rec = rec
	s.enc.SetRecorder(rec)
}

func (s *StreamWriter) writePacket(key bool, data []byte) error {
	if s.closed {
		return errors.New("media: stream writer closed")
	}
	var head [5]byte
	binary.LittleEndian.PutUint32(head[:4], uint32(len(data)))
	if key {
		head[4] = flagKey
	}
	if _, err := s.w.Write(head[:]); err != nil {
		return fmt.Errorf("media: stream packet: %w", err)
	}
	if _, err := s.w.Write(data); err != nil {
		return fmt.Errorf("media: stream packet: %w", err)
	}
	s.pts++
	return nil
}

// WriteFrame encodes fr and streams its packet.
func (s *StreamWriter) WriteFrame(fr *frame.Frame) error {
	if s.spliced {
		s.enc.ForceKeyframe()
		s.spliced = false
	}
	pkt, err := s.enc.Encode(fr)
	if err != nil {
		return err
	}
	err = s.writePacket(pkt.Key, pkt.Data)
	s.enc.Recycle(pkt) // the stream wrote the bytes; reuse the buffer
	if err != nil {
		return err
	}
	s.stats.FramesEncoded++
	return nil
}

// WriteRawPacket streams a stream-copied packet.
func (s *StreamWriter) WriteRawPacket(key bool, data []byte) error {
	copyStart := time.Now()
	if err := s.writePacket(key, data); err != nil {
		return err
	}
	s.rec.StageObserve(obs.StageCopy, 1, int64(len(data)), time.Since(copyStart))
	s.spliced = true
	s.stats.PacketsCopied++
	s.stats.BytesCopied += int64(len(data))
	return nil
}

// WriteEncodedFrame streams a shard-encoded packet.
func (s *StreamWriter) WriteEncodedFrame(key bool, data []byte) error {
	if err := s.writePacket(key, data); err != nil {
		return err
	}
	s.spliced = true
	s.stats.FramesEncoded++
	return nil
}

// Abort stops the stream without the end-of-stream marker: the consumer's
// read fails or blocks at the truncation point instead of seeing a clean
// end, which is the correct signal for an abandoned synthesis.
func (s *StreamWriter) Abort() error {
	s.closed = true
	s.enc.Close()
	return nil
}

// AbortWithError stops the stream but first writes a typed error trailer,
// so a consumer that already received the header can distinguish "the
// producer failed" (with its message) from a cut connection. The write is
// best-effort: if the transport is the thing that failed, the consumer
// sees truncation instead, which is still accurate.
func (s *StreamWriter) AbortWithError(cause error) error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.enc.Close()
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	return s.writeTrailer(StreamTrailer{Status: "error", Packets: s.pts, Error: msg})
}

// Close writes the typed end-of-stream trailer marking a complete stream.
func (s *StreamWriter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.enc.Close()
	return s.writeTrailer(StreamTrailer{Status: "ok", Packets: s.pts})
}

func (s *StreamWriter) writeTrailer(tr StreamTrailer) error {
	body, err := json.Marshal(tr)
	if err != nil {
		return fmt.Errorf("media: stream trailer: %w", err)
	}
	var head [5]byte
	binary.LittleEndian.PutUint32(head[:4], uint32(len(body)))
	head[4] = flagTrailer
	if _, err := s.w.Write(head[:]); err != nil {
		return fmt.Errorf("media: stream trailer: %w", err)
	}
	if _, err := s.w.Write(body); err != nil {
		return fmt.Errorf("media: stream trailer: %w", err)
	}
	return nil
}

// StreamReader consumes the VMS progressive format, decoding frames as
// packets arrive.
type StreamReader struct {
	r          io.Reader
	dec        *codec.Decoder
	info       container.StreamInfo
	done       bool
	trailer    StreamTrailer
	hasTrailer bool
}

// NewStreamReader parses the stream header.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("media: stream magic: %w", err)
	}
	if string(head[:4]) != vmsMagic {
		return nil, fmt.Errorf("media: bad stream magic %q", head[:4])
	}
	hdrLen := binary.LittleEndian.Uint32(head[4:])
	if hdrLen == 0 || hdrLen > 1<<20 {
		return nil, fmt.Errorf("media: implausible stream header length %d", hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("media: stream header: %w", err)
	}
	var info container.StreamInfo
	if err := json.Unmarshal(hdr, &info); err != nil {
		return nil, fmt.Errorf("media: stream header: %w", err)
	}
	if err := info.Validate(); err != nil {
		return nil, err
	}
	dec, err := codec.NewDecoder(codec.Config{
		Width: info.Width, Height: info.Height,
		Quality: info.Quality, GOP: info.GOP, Level: info.Level,
	})
	if err != nil {
		return nil, err
	}
	return &StreamReader{r: r, dec: dec, info: info}, nil
}

// Info returns the stream description.
func (s *StreamReader) Info() container.StreamInfo { return s.info }

// NextPacket reads one packet; io.EOF signals a clean end of stream
// (typed "ok" trailer, or the legacy zero-length header older producers
// wrote). A stream that stops mid-flight returns an error wrapping
// ErrTruncatedStream; a typed error trailer returns an error wrapping
// ErrStreamFailed carrying the producer's message.
func (s *StreamReader) NextPacket() (key bool, data []byte, err error) {
	if s.done {
		return false, nil, io.EOF
	}
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
	if size == 0 {
		// Legacy clean end-of-stream marker (pre-trailer producers).
		s.done = true
		return false, nil, io.EOF
	}
	if size > 1<<30 {
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
	s.trailer, s.hasTrailer = tr, true
	s.done = true
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
// Legacy streams ending in the zero-length marker have none.
func (s *StreamReader) Trailer() (StreamTrailer, bool) { return s.trailer, s.hasTrailer }

// NextFrame reads and decodes the next frame; io.EOF at end of stream.
func (s *StreamReader) NextFrame() (*frame.Frame, error) {
	_, data, err := s.NextPacket()
	if err != nil {
		return nil, err
	}
	return s.dec.Decode(data)
}
