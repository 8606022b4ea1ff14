package media

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v2v/internal/container"
	"v2v/internal/frame"
	"v2v/internal/obs"
	"v2v/internal/rational"
)

func TestStreamWriterReaderRoundTrip(t *testing.T) {
	info := testInfo(6)
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf, info)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	w.SetRecorder(rec)
	for i := 0; i < 14; i++ {
		fr := frame.New(info.Width, info.Height, frame.FormatYUV420)
		fr.Fill(byte(40+i), 128, 128)
		frame.Stamp(fr, uint32(i))
		if err := w.WriteFrame(fr); err != nil {
			t.Fatalf("WriteFrame(%d): %v", i, err)
		}
	}
	if got := rec.Stage(obs.StageEncode).Frames; got != 14 {
		t.Errorf("writer encoded %d frames, want 14", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Error("double close should be nil")
	}

	r, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Info().Mismatch(w.Info()); d != "" {
		t.Errorf("info = %+v: %s", r.Info(), d)
	}
	for i := 0; i < 14; i++ {
		fr, err := r.NextFrame()
		if err != nil {
			t.Fatalf("NextFrame(%d): %v", i, err)
		}
		if id, ok := frame.ReadStamp(fr); !ok || id != uint32(i) {
			t.Fatalf("frame %d stamp = %d,%v", i, id, ok)
		}
	}
	if _, err := r.NextFrame(); err != io.EOF {
		t.Fatalf("end of stream err = %v, want EOF", err)
	}
	if _, err := r.NextFrame(); err != io.EOF {
		t.Fatal("EOF should be sticky")
	}
}

func TestStreamSpliceAndForcedKeyframe(t *testing.T) {
	dir := t.TempDir()
	src := makeVideo(t, dir, "src.vmf", testInfo(6), 18)
	rd, _ := OpenReader(src)
	defer rd.Close()

	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf, rd.Info())
	if err != nil {
		t.Fatal(err)
	}
	// Stream-copy a GOP then encode a frame: the encode must be a key.
	if err := CopyRange(w, rd, 0, 6); err != nil {
		t.Fatal(err)
	}
	fr := frame.New(160, 48, frame.FormatYUV420)
	frame.Stamp(fr, 77)
	if err := w.WriteFrame(fr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SmartCut(w, rd, 8, 18); err != nil {
		t.Fatal(err)
	}
	w.Close()

	r, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	for {
		fr, err := r.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if id, ok := frame.ReadStamp(fr); ok {
			ids = append(ids, id)
		}
	}
	want := append(append(append([]uint32{}, seq(0, 6)...), 77), seq(8, 10)...)
	if !eqU32(ids, want) {
		t.Fatalf("stream stamps = %v, want %v", ids, want)
	}
}

func TestStreamReaderErrors(t *testing.T) {
	if _, err := NewStreamReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail")
	}
	if _, err := NewStreamReader(bytes.NewReader([]byte("NOPE0000xxxx"))); err == nil {
		t.Error("bad magic should fail")
	}
	// A header naming a codec other than GV1 fails instead of decoding
	// the packets as GV1.
	foreign := testInfo(6)
	foreign.Codec = "AVC1"
	var hdr bytes.Buffer
	if _, err := container.WriteHeader(&hdr, vmsMagic, foreign); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamReader(&hdr); err == nil || !strings.Contains(err.Error(), `"AVC1"`) {
		t.Errorf("foreign codec: err = %v, want it refused by name", err)
	}
	// Truncated mid-packet.
	info := testInfo(6)
	var buf bytes.Buffer
	w, _ := NewStreamWriter(&buf, info)
	fr := frame.New(info.Width, info.Height, frame.FormatYUV420)
	w.WriteFrame(fr)
	raw := buf.Bytes()[:buf.Len()-3] // cut into the packet body
	r, err := NewStreamReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.NextPacket(); err == nil {
		t.Error("truncated packet should fail")
	}
}

func TestStreamWriterRejectsBadInfo(t *testing.T) {
	var buf bytes.Buffer
	bad := testInfo(6)
	bad.Codec = "H264"
	if _, err := NewStreamWriter(&buf, bad); err == nil {
		t.Error("unknown codec should fail")
	}
	odd := testInfo(6)
	odd.Width = 33
	if _, err := NewStreamWriter(&buf, odd); err == nil {
		t.Error("odd width should fail")
	}
}

// TestStreamTrailerTyped asserts the end-of-stream contract: a Closed
// stream carries an "ok" trailer with the packet count, an aborted stream
// carries an "error" trailer the reader surfaces as ErrStreamFailed, and a
// stream that just stops reads as ErrTruncatedStream.
func TestStreamTrailerTyped(t *testing.T) {
	info := testInfo(6)
	writeFrames := func(w *Writer, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			fr := frame.New(info.Width, info.Height, frame.FormatYUV420)
			frame.Stamp(fr, uint32(i))
			if err := w.WriteFrame(fr); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain := func(r *StreamReader) error {
		for {
			if _, _, err := r.NextPacket(); err != nil {
				return err
			}
		}
	}

	// Clean close: ok trailer, packet count echoed, sticky io.EOF.
	var ok bytes.Buffer
	w, _ := NewStreamWriter(&ok, info)
	writeFrames(w, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewStreamReader(&ok)
	if err != nil {
		t.Fatal(err)
	}
	if err := drain(r); !errors.Is(err, io.EOF) {
		t.Fatalf("clean stream end = %v, want io.EOF", err)
	}
	tr, has := r.Trailer()
	if !has || tr.Status != "ok" || tr.Packets != 3 {
		t.Fatalf("trailer = %+v,%v; want ok with 3 packets", tr, has)
	}
	if _, _, err := r.NextPacket(); !errors.Is(err, io.EOF) {
		t.Error("EOF should stay sticky after the trailer")
	}

	// Producer failure after the header: typed error trailer with message.
	var failed bytes.Buffer
	w, _ = NewStreamWriter(&failed, info)
	writeFrames(w, 2)
	if err := w.Abort(errors.New("boom: disk on fire")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, errWriterAborted) {
		t.Errorf("close after abort = %v, want the abort reported", err)
	}
	r, err = NewStreamReader(&failed)
	if err != nil {
		t.Fatal(err)
	}
	err = drain(r)
	if !errors.Is(err, ErrStreamFailed) {
		t.Fatalf("failed stream end = %v, want ErrStreamFailed", err)
	}
	if !strings.Contains(err.Error(), "disk on fire") {
		t.Errorf("error trailer lost the producer message: %v", err)
	}
	if tr, has := r.Trailer(); !has || tr.Status != "error" || tr.Packets != 2 {
		t.Errorf("error trailer = %+v,%v", tr, has)
	}

	// Silent truncation (a crashed producer, or a cut connection): typed
	// truncation error.
	var cut bytes.Buffer
	w, _ = NewStreamWriter(&cut, info)
	writeFrames(w, 2)
	r, err = NewStreamReader(&cut)
	if err != nil {
		t.Fatal(err)
	}
	if err := drain(r); !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("truncated stream end = %v, want ErrTruncatedStream", err)
	}
	if _, has := r.Trailer(); has {
		t.Error("truncated stream should have no trailer")
	}

	// Truncation inside a packet body is typed too.
	var mid bytes.Buffer
	w, _ = NewStreamWriter(&mid, info)
	writeFrames(w, 1)
	r, err = NewStreamReader(bytes.NewReader(mid.Bytes()[:mid.Len()-3]))
	if err != nil {
		t.Fatal(err)
	}
	if err := drain(r); !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("mid-packet truncation = %v, want ErrTruncatedStream", err)
	}
}

// TestStreamZeroLengthHeaderRejected: a zero-length packet header, the
// end-of-stream marker of producers from before the typed trailer, is a
// damaged stream — an "implausible packet size" error that reads as none
// of the three stream ends — and leaves no trailer behind.
func TestStreamZeroLengthHeaderRejected(t *testing.T) {
	info := testInfo(6)
	var buf bytes.Buffer
	w, _ := NewStreamWriter(&buf, info)
	fr := frame.New(info.Width, info.Height, frame.FormatYUV420)
	if err := w.WriteFrame(fr); err != nil {
		t.Fatal(err)
	}
	buf.Write([]byte{0, 0, 0, 0, flagNonKey}) // the old zero-length marker, no typed trailer
	r, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.NextPacket(); err != nil {
		t.Fatal(err)
	}
	_, _, err = r.NextPacket()
	if err == nil || !strings.Contains(err.Error(), "implausible packet size 0") {
		t.Fatalf("zero-length header = %v, want an implausible packet size error", err)
	}
	for _, end := range []error{io.EOF, ErrStreamFailed, ErrTruncatedStream} {
		if errors.Is(err, end) {
			t.Errorf("zero-length header reads as %v", end)
		}
	}
	if _, has := r.Trailer(); has {
		t.Error("a stream without a trailer reports one")
	}
}

// writtenPacket is one packet as a reader gets it back.
type writtenPacket struct {
	key  bool
	data []byte
}

// TestWriterFormats runs one table against both output formats of Writer:
// the constructor's validation, the stream's first-packet rule, the
// keyframe a splice forces, byte-equal packets and equal Stats read back
// through Reader and StreamReader, and what Abort leaves behind.
func TestWriterFormats(t *testing.T) {
	formats := []struct {
		name string
		// create opens a writer; readBack, called after Close or Abort,
		// returns the packets written and the error that ended the read
		// (io.EOF at a clean end).
		create  func(t *testing.T, info container.StreamInfo) (w *Writer, err error, readBack func() ([]writtenPacket, error))
		aborted func(readErr error) bool
	}{
		{
			name: "vmf",
			create: func(t *testing.T, info container.StreamInfo) (*Writer, error, func() ([]writtenPacket, error)) {
				dir := t.TempDir()
				w, err := CreateWriter(filepath.Join(dir, "out.vmf"), info)
				return w, err, func() ([]writtenPacket, error) {
					entries, err := os.ReadDir(dir)
					if err != nil {
						return nil, err
					}
					if len(entries) == 0 {
						return nil, fs.ErrNotExist
					}
					if len(entries) != 1 || entries[0].Name() != "out.vmf" {
						return nil, fmt.Errorf("left behind %v", entries)
					}
					r, err := OpenReader(filepath.Join(dir, "out.vmf"))
					if err != nil {
						return nil, err
					}
					defer r.Close()
					var pkts []writtenPacket
					for i := 0; i < r.NumFrames(); i++ {
						data, err := r.Container().ReadPacket(i)
						if err != nil {
							return pkts, err
						}
						pkts = append(pkts, writtenPacket{r.Container().Record(i).Key, data})
					}
					return pkts, io.EOF
				}
			},
			aborted: func(err error) bool { return errors.Is(err, fs.ErrNotExist) },
		},
		{
			name: "vms",
			create: func(t *testing.T, info container.StreamInfo) (*Writer, error, func() ([]writtenPacket, error)) {
				var buf bytes.Buffer
				w, err := NewStreamWriter(&buf, info)
				return w, err, func() ([]writtenPacket, error) {
					r, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
					if err != nil {
						return nil, err
					}
					var pkts []writtenPacket
					for {
						key, data, err := r.NextPacket()
						if err != nil {
							return pkts, err
						}
						pkts = append(pkts, writtenPacket{key, data})
					}
				}
			},
			aborted: func(err error) bool {
				return errors.Is(err, ErrStreamFailed) && strings.Contains(err.Error(), "boom")
			},
		},
	}

	info := testInfo(6)
	src := makeVideo(t, t.TempDir(), "src.vmf", info, 12)
	rd, err := OpenReader(src)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	stamped := func(id uint32) *frame.Frame {
		fr := frame.New(info.Width, info.Height, frame.FormatYUV420)
		fr.Fill(byte(90+id), 128, 128)
		frame.Stamp(fr, id)
		return fr
	}

	var packets [][]writtenPacket
	var work []obs.Work
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			for name, mutate := range map[string]func(*container.StreamInfo){
				"unknown codec": func(i *container.StreamInfo) { i.Codec = "H264" },
				"odd width":     func(i *container.StreamInfo) { i.Width = 33 },
				"zero fps":      func(i *container.StreamInfo) { i.FPS = rational.Rat{} },
			} {
				bad := info
				mutate(&bad)
				if _, err, _ := f.create(t, bad); err == nil {
					t.Errorf("constructor accepted %s", name)
				}
			}

			w, err, _ := f.create(t, info)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteRawPacket(false, []byte{1, 2, 3}); err == nil {
				t.Error("a non-key first packet was accepted")
			}
			if err := w.WriteEncodedFrame(false, []byte{1, 2, 3}); err == nil {
				t.Error("a non-key first encoded packet was accepted")
			}
			if err := w.Abort(errors.New("boom")); err != nil {
				t.Fatal(err)
			}

			// frame, frame, spliced GOP head, frame: the frame after the
			// splice must be a keyframe, the one before it not.
			w, err, readBack := f.create(t, info)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder()
			w.SetRecorder(rec)
			for id := uint32(0); id < 2; id++ {
				if err := w.WriteFrame(stamped(id)); err != nil {
					t.Fatal(err)
				}
			}
			if w.FirstPacket().IsZero() {
				t.Error("first-packet time not stamped")
			}
			if err := CopyRange(w, rd, 6, 8); err != nil {
				t.Fatal(err)
			}
			if err := w.WriteFrame(stamped(2)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := readBack()
			if !errors.Is(err, io.EOF) {
				t.Fatalf("read back: %v", err)
			}
			var keys []bool
			for _, p := range got {
				keys = append(keys, p.key)
			}
			if fmt.Sprint(keys) != "[true false true false true]" {
				t.Errorf("keyframes = %v, want [true false true false true]", keys)
			}
			for i := 6; i < 8 && len(got) == 5; i++ {
				want, _ := rd.Container().ReadPacket(i)
				if !bytes.Equal(got[i-4].data, want) {
					t.Errorf("spliced packet %d differs from the source", i)
				}
			}
			packets, work = append(packets, got), append(work, rec.Work())

			// Abort after a packet: a VMF file leaves nothing behind, a VMS
			// stream ends in the typed error trailer.
			w, err, readBack = f.create(t, info)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteFrame(stamped(0)); err != nil {
				t.Fatal(err)
			}
			if err := w.Abort(errors.New("boom")); err != nil {
				t.Fatal(err)
			}
			if err := w.WriteFrame(stamped(1)); err == nil {
				t.Error("write after Abort accepted")
			}
			if _, err := readBack(); !f.aborted(err) {
				t.Errorf("aborted output reads back as %v", err)
			}
		})
	}
	if len(packets) == 2 {
		if fmt.Sprint(packets[0]) != fmt.Sprint(packets[1]) {
			t.Error("the two formats read back different packets")
		}
		if enc, cp := work[0].FramesEncoded, work[0].PacketsCopied; enc != 3 || cp != 2 ||
			work[1].FramesEncoded != enc || work[1].PacketsCopied != cp || work[1].BytesCopied != work[0].BytesCopied {
			t.Errorf("work = %+v vs %+v, want equal with 3 encoded and 2 copied", work[0], work[1])
		}
	}
}
