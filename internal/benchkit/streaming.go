package benchkit

// Streaming sweep: time-to-first-frame and inter-segment delivery gap for
// presentation-order streaming synthesis, at increasing numbers of
// concurrent streams. Each stream runs the splice query (segments
// delivered in presentation order while later segments render) into a
// stream sink behind a flushing sink — the same delivery stack
// cmd/v2vserve uses for ?stream=1 responses — and the sweep verifies the
// streamed packets stay identical to a reference run into a file sink.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"v2v/internal/container"
	"v2v/internal/core"
	"v2v/internal/media"
	"v2v/internal/vql"
)

// StreamingRow reports one concurrency point of the streaming sweep.
type StreamingRow struct {
	Query string
	// Streams is the number of concurrent streaming syntheses.
	Streams int
	// Segments is the plan's segment count (the splice arms).
	Segments int
	// Wall is the mean end-to-end wall time per stream.
	Wall time.Duration
	// TTFF is the mean time until a stream's first bytes were flushed —
	// the honest time-to-first-frame a network client would observe.
	TTFF time.Duration
	// TTFFMax is the worst TTFF across all streams of the point.
	TTFFMax time.Duration
	// MaxSegGap is the worst gap between consecutive segment deliveries
	// across all streams — the longest a playing client would go without
	// new data after playback started.
	MaxSegGap time.Duration
	// ByteIdentical reports whether every stream's packets matched the
	// file-sink reference run byte for byte.
	ByteIdentical bool
}

// streamingConcurrency is the sweep's concurrent-stream counts.
var streamingConcurrency = []int{1, 4, 16}

// streamMeasure is one stream's observed delivery timeline.
type streamMeasure struct {
	wall time.Duration
	ttff time.Duration
	gap  time.Duration
	sha  string
	err  error
}

// runStream executes one streaming synthesis of the prepared spec,
// recording TTFF from the flushing sink and the largest inter-segment
// delivery gap from the OnSegmentDone hook.
func runStream(spec *vql.Spec, o core.Options) streamMeasure {
	var buf bytes.Buffer
	fs := media.NewFlushingSink(&buf, media.FlushConfig{})
	var marks []time.Time
	o.OnSegmentDone = func(int) {
		// Called on the delivery goroutine: -1 after the header, then each
		// segment in presentation order.
		marks = append(marks, time.Now())
		fs.Barrier()
	}
	start := time.Now()
	_, err := core.SynthesizeStream(spec, fs, o)
	if cerr := fs.CloseFlush(); err == nil {
		err = cerr
	}
	m := streamMeasure{wall: time.Since(start), err: err}
	if err != nil {
		return m
	}
	if first, ok := fs.FirstFlush(); ok {
		m.ttff = first.Sub(start)
	}
	for i := 1; i < len(marks); i++ {
		if gap := marks[i].Sub(marks[i-1]); gap > m.gap {
			m.gap = gap
		}
	}
	m.sha, m.err = streamPacketSHA(buf.Bytes())
	return m
}

// hashPacket adds one output packet — flag, size, payload — to h, so a
// fingerprint is independent of the container the packets arrived in.
func hashPacket(h hash.Hash, key bool, data []byte) {
	fmt.Fprintf(h, "%t %d\n", key, len(data))
	h.Write(data)
}

// streamPacketSHA fingerprints the packets of a complete VMS stream.
func streamPacketSHA(vms []byte) (string, error) {
	sr, err := media.NewStreamReader(bytes.NewReader(vms))
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for {
		key, data, err := sr.NextPacket()
		if errors.Is(err, io.EOF) {
			return hex.EncodeToString(h.Sum(nil)), nil
		}
		if err != nil {
			return "", err
		}
		hashPacket(h, key, data)
	}
}

// filePacketSHA fingerprints the packets of a VMF file.
func filePacketSHA(path string) (string, error) {
	c, err := container.Open(path)
	if err != nil {
		return "", err
	}
	defer c.Close()
	h := sha256.New()
	for i := 0; i < c.NumPackets(); i++ {
		data, err := c.ReadPacket(i)
		if err != nil {
			return "", err
		}
		hashPacket(h, c.Record(i).Key, data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// StreamingRun measures the streaming sweep for the given query on ds:
// one row per concurrency point, after a file-sink reference run that
// anchors the byte-identity check.
func StreamingRun(ds *Dataset, queryID string, cfg Config) ([]StreamingRow, error) {
	q, ok := QueryByID(queryID)
	if !ok {
		return nil, fmt.Errorf("benchkit: unknown query %s", queryID)
	}
	src := q.BuildSpecSource(ds, cfg.Scale)
	spec, err := vql.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("benchkit: %s/%s: %w", ds.Name, q.ID, err)
	}
	o := core.Options{
		Optimize: true, DataRewrite: true,
		Parallelism: cfg.Parallelism,
		GOPCache:    cfg.GOPCache, ResultCache: cfg.ResultCache,
	}

	// Reference: the same plan into a file sink defines the expected
	// packets and the segment count.
	refPath := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-%s-streaming-ref.vmf", ds.Name, q.ID))
	defer os.Remove(refPath)
	res, err := core.Synthesize(spec, refPath, o)
	if err != nil {
		return nil, fmt.Errorf("benchkit: %s/%s reference: %w", ds.Name, q.ID, err)
	}
	refSHA, err := filePacketSHA(refPath)
	if err != nil {
		return nil, fmt.Errorf("benchkit: %s/%s reference: %w", ds.Name, q.ID, err)
	}
	segments := len(res.Plan.Segments)

	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	var rows []StreamingRow
	for _, streams := range streamingConcurrency {
		row := StreamingRow{Query: q.ID, Streams: streams, Segments: segments, ByteIdentical: true}
		var wallSum, ttffSum time.Duration
		n := 0
		// One discarded warm-up round per point, then the measured rounds.
		for round := 0; round < repeats+1; round++ {
			ms := make([]streamMeasure, streams)
			var wg sync.WaitGroup
			for i := range ms {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ms[i] = runStream(spec, o)
				}(i)
			}
			wg.Wait()
			for _, m := range ms {
				if m.err != nil {
					return nil, fmt.Errorf("benchkit: %s/%s x%d: %w", ds.Name, q.ID, streams, m.err)
				}
			}
			if round == 0 {
				continue
			}
			for _, m := range ms {
				wallSum += m.wall
				ttffSum += m.ttff
				n++
				if m.ttff > row.TTFFMax {
					row.TTFFMax = m.ttff
				}
				if m.gap > row.MaxSegGap {
					row.MaxSegGap = m.gap
				}
				if m.sha != refSHA {
					row.ByteIdentical = false
				}
			}
		}
		row.Wall = wallSum / time.Duration(n)
		row.TTFF = ttffSum / time.Duration(n)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatStreaming renders the streaming sweep as an aligned text table.
func FormatStreaming(title string, rows []StreamingRow) string {
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-6s %8s %6s %10s %10s %10s %10s %7s\n",
		"Query", "Streams", "Segs", "Wall", "TTFF", "TTFFmax", "MaxGap", "Bytes")
	for _, r := range rows {
		id := "ok"
		if !r.ByteIdentical {
			id = "DIFFER"
		}
		fmt.Fprintf(&sb, "%-6s %8d %6d %10s %10s %10s %10s %7s\n",
			r.Query, r.Streams, r.Segments, fmtDur(r.Wall), fmtDur(r.TTFF),
			fmtDur(r.TTFFMax), fmtDur(r.MaxSegGap), id)
	}
	return sb.String()
}
