package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage for per-stage accounting. The four
// stages mirror the cost model the optimizer exploits: decode and encode
// are the expensive transforms, filter is the pixel work between them, and
// copy is the near-memcpy packet path that stream copies and smart cuts
// ride.
type Stage int

const (
	// StageDecode covers codec packet→frame decompression; bytes are the
	// pixel bytes produced.
	StageDecode Stage = iota
	// StageFilter covers render-expression evaluation (filter operators,
	// composition, scaling); bytes are the pixel bytes produced.
	StageFilter
	// StageEncode covers codec frame→packet compression; bytes are the
	// encoded packet bytes produced.
	StageEncode
	// StageCopy covers stream-copied packets written without re-encoding;
	// bytes are the encoded packet bytes copied.
	StageCopy

	numStages = 4
)

// String returns the stage label used in metric labels and JSON keys.
func (s Stage) String() string {
	switch s {
	case StageDecode:
		return "decode"
	case StageFilter:
		return "filter"
	case StageEncode:
		return "encode"
	case StageCopy:
		return "copy"
	}
	return "unknown"
}

// StageStats is a point-in-time snapshot of one stage's accumulated work.
// Wall is the summed duration of the stage's operations (shard-parallel
// work sums, so Wall can exceed the request's elapsed time).
type StageStats struct {
	Frames int64         `json:"frames"`
	Bytes  int64         `json:"bytes"`
	Wall   time.Duration `json:"wall_ns"`
}

// StageBuckets returns histogram upper bounds (seconds) sized for
// per-frame stage operations, which are typically tens of microseconds to
// a few milliseconds — much finer than request-level LatencyBuckets.
func StageBuckets() []float64 {
	return []float64{.00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, 1}
}

// Process-wide per-stage instruments. Every StageObserve call updates
// these, recorder or not, so /metrics reflects all pipeline work in the
// process; per-second rates over the frame and byte counters give
// frames/s and MB/s per stage.
var (
	stageFramesDecode = Default().Counter(`v2v_stage_frames_total{stage="decode"}`, "Frames processed per pipeline stage.")
	stageFramesFilter = Default().Counter(`v2v_stage_frames_total{stage="filter"}`, "Frames processed per pipeline stage.")
	stageFramesEncode = Default().Counter(`v2v_stage_frames_total{stage="encode"}`, "Frames processed per pipeline stage.")
	stageFramesCopy   = Default().Counter(`v2v_stage_frames_total{stage="copy"}`, "Frames processed per pipeline stage.")

	stageBytesDecode = Default().Counter(`v2v_stage_bytes_total{stage="decode"}`, "Bytes produced per pipeline stage (pixel bytes for decode/filter, encoded bytes for encode/copy).")
	stageBytesFilter = Default().Counter(`v2v_stage_bytes_total{stage="filter"}`, "Bytes produced per pipeline stage (pixel bytes for decode/filter, encoded bytes for encode/copy).")
	stageBytesEncode = Default().Counter(`v2v_stage_bytes_total{stage="encode"}`, "Bytes produced per pipeline stage (pixel bytes for decode/filter, encoded bytes for encode/copy).")
	stageBytesCopy   = Default().Counter(`v2v_stage_bytes_total{stage="copy"}`, "Bytes produced per pipeline stage (pixel bytes for decode/filter, encoded bytes for encode/copy).")

	stageWallDecode = Default().Histogram(`v2v_stage_wall_seconds{stage="decode"}`, "Per-operation wall time by pipeline stage.", StageBuckets())
	stageWallFilter = Default().Histogram(`v2v_stage_wall_seconds{stage="filter"}`, "Per-operation wall time by pipeline stage.", StageBuckets())
	stageWallEncode = Default().Histogram(`v2v_stage_wall_seconds{stage="encode"}`, "Per-operation wall time by pipeline stage.", StageBuckets())
	stageWallCopy   = Default().Histogram(`v2v_stage_wall_seconds{stage="copy"}`, "Per-operation wall time by pipeline stage.", StageBuckets())
)

var (
	stageFrames = [numStages]*Counter{stageFramesDecode, stageFramesFilter, stageFramesEncode, stageFramesCopy}
	stageBytes  = [numStages]*Counter{stageBytesDecode, stageBytesFilter, stageBytesEncode, stageBytesCopy}
	stageWall   = [numStages]*Histogram{stageWallDecode, stageWallFilter, stageWallEncode, stageWallCopy}
)

// Recorder accumulates per-stage work for one request. All methods are
// lock-free atomics and nil-safe: instrumentation sites call StageObserve
// unconditionally, and a nil recorder still feeds the process-wide
// v2v_stage_* metrics while skipping per-request attribution. Safe for
// concurrent use by shard workers.
type Recorder struct {
	parent *Recorder
	frames [numStages]atomic.Int64
	bytes  [numStages]atomic.Int64
	wallNS [numStages]atomic.Int64
}

// NewRecorder returns an empty per-request recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Child returns an empty recorder for one part of r's request (the
// executor makes one per plan segment): whatever the child observes also
// counts toward r, so the children's stages sum to the request's.
// Nil-safe: a nil recorder's child attributes to itself only.
func (r *Recorder) Child() *Recorder { return &Recorder{parent: r} }

// StageObserve records one stage operation: frames and bytes processed and
// the wall time spent. The process-wide stage metrics are always updated;
// the recorder's own counters only when r is non-nil.
func (r *Recorder) StageObserve(s Stage, frames, bytes int64, wall time.Duration) {
	if s < 0 || s >= numStages {
		return
	}
	stageFrames[s].Add(frames)
	stageBytes[s].Add(bytes)
	stageWall[s].Observe(wall.Seconds())
	for ; r != nil; r = r.parent {
		r.frames[s].Add(frames)
		r.bytes[s].Add(bytes)
		r.wallNS[s].Add(int64(wall))
	}
}

// Stage returns a snapshot of one stage's accumulated work. Nil-safe
// (returns zeros).
func (r *Recorder) Stage(s Stage) StageStats {
	if r == nil || s < 0 || s >= numStages {
		return StageStats{}
	}
	return StageStats{
		Frames: r.frames[s].Load(),
		Bytes:  r.bytes[s].Load(),
		Wall:   time.Duration(r.wallNS[s].Load()),
	}
}

// Stages returns a snapshot of all stages keyed by stage label. Nil-safe
// (returns an empty map).
func (r *Recorder) Stages() map[string]StageStats {
	out := make(map[string]StageStats, numStages)
	if r == nil {
		return out
	}
	for s := Stage(0); s < numStages; s++ {
		out[s.String()] = r.Stage(s)
	}
	return out
}

// NewTraceID returns a fresh 16-hex-digit request/trace identifier, the
// join key shared by a request's log lines, flight-recorder entry, and
// span trace.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// recognizable constant rather than an empty ID.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
