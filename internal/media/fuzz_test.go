package media

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"v2v/internal/frame"
)

// streamSeeds returns real stream Writer output ending in each way a VMS
// stream can end: an ok trailer, an error trailer, a zero-length packet
// header (the old end marker, now refused), a bare cut after a packet,
// and cuts inside a packet header, a packet body, just after a packet
// header, and inside the trailer.
func streamSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	info := testInfo(2)
	write := func(n int, end func(w *Writer, buf *bytes.Buffer)) []byte {
		var buf bytes.Buffer
		w, err := NewStreamWriter(&buf, info)
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < n; i++ {
			fr := frame.New(info.Width, info.Height, frame.FormatYUV420)
			frame.Stamp(fr, uint32(i))
			if err := w.WriteFrame(fr); err != nil {
				tb.Fatal(err)
			}
		}
		end(w, &buf)
		return buf.Bytes()
	}
	ok := write(3, func(w *Writer, _ *bytes.Buffer) { w.Close() })
	one := write(1, func(*Writer, *bytes.Buffer) {}) // the producer stops: no trailer
	return [][]byte{
		ok,
		write(2, func(w *Writer, _ *bytes.Buffer) { w.Abort(errors.New("boom")) }),
		write(2, func(_ *Writer, buf *bytes.Buffer) { buf.Write([]byte{0, 0, 0, 0, flagNonKey}) }),
		one,
		one[:len(one)-3],
		append(one[:len(one):len(one)], 9, 0, 0, 0, flagKey),
		append(one[:len(one):len(one)], 9, 0),
		ok[:len(ok)-4],
		ok[:12],
		{},
	}
}

// FuzzStreamReader throws arbitrary bytes at the VMS reader: the header,
// packets, and each trailer type. A stream the header parse accepts must
// end in exactly one of io.EOF, ErrStreamFailed and ErrTruncatedStream —
// or in a parse error, which is none of them — never panic, and keep a
// clean end sticky. A clean end always comes with an "ok" trailer.
func FuzzStreamReader(f *testing.F) {
	for _, seed := range streamSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return // rejected header
		}
		for packets := 0; ; packets++ {
			_, _, err := r.NextPacket()
			if err == nil {
				if packets > len(data) {
					t.Fatal("more packets than input bytes")
				}
				continue
			}
			ends := 0
			for _, end := range []error{io.EOF, ErrStreamFailed, ErrTruncatedStream} {
				if errors.Is(err, end) {
					ends++
				}
			}
			if ends > 1 {
				t.Fatalf("%v reads as %d different stream ends", err, ends)
			}
			if errors.Is(err, io.EOF) {
				if tr, ok := r.Trailer(); !ok || tr.Status != "ok" {
					t.Fatalf("clean end with trailer %+v (present %v)", tr, ok)
				}
				if _, _, err := r.NextPacket(); !errors.Is(err, io.EOF) {
					t.Fatalf("clean end not sticky: then %v", err)
				}
			}
			return
		}
	})
}
