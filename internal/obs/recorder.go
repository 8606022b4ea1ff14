package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
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

var stageNames = [numStages]string{"decode", "filter", "encode", "copy"}

// String returns the stage label used in metric labels and JSON keys.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "unknown"
	}
	return stageNames[s]
}

// StageStats is a point-in-time snapshot of one stage's accumulated work.
// Wall is the summed duration of the stage's operations (shard-parallel
// work sums, so Wall can exceed the request's elapsed time).
type StageStats struct {
	Frames int64         `json:"frames"`
	Bytes  int64         `json:"bytes"`
	Wall   time.Duration `json:"wall_ns"`
}

// Process-wide per-stage instruments, labelled by stage. Every
// StageObserve call updates these, recorder or not, so /metrics reflects
// all pipeline work in the process; per-second rates over the frame and
// byte counters give frames/s and MB/s per stage.
var (
	stageFrames, stageBytes [numStages]*Counter
	stageWall               [numStages]*Histogram
)

func init() {
	// Per-frame stage operations take tens of microseconds to a few
	// milliseconds: much finer buckets than request-level LatencyBuckets.
	buckets := []float64{.00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, 1}
	for s := Stage(0); s < numStages; s++ {
		stageFrames[s] = Default().Counter(fmt.Sprintf("v2v_stage_frames_total{stage=%q}", s),
			"Frames processed per pipeline stage.")
		stageBytes[s] = Default().Counter(fmt.Sprintf("v2v_stage_bytes_total{stage=%q}", s),
			"Bytes produced per pipeline stage (pixel bytes for decode/filter, encoded bytes for encode/copy).")
		stageWall[s] = Default().Histogram(fmt.Sprintf("v2v_stage_wall_seconds{stage=%q}", s),
			"Per-operation wall time by pipeline stage.", buckets)
	}
}

// Event identifies executor work that is counted, not timed.
type Event int

const (
	// EventConcealed is a corrupt or undecodable source packet replaced by
	// holding the last good frame (concealment mode only).
	EventConcealed Event = iota
	// EventGOPHit is a decoded-GOP cache lookup served with no decode;
	// EventGOPMiss is one that paid a whole-GOP fill, whose decodes count
	// under StageDecode.
	EventGOPHit
	EventGOPMiss
	// EventResultHit is a rendered segment spliced from the encoded-result
	// cache without rendering; EventResultMiss is one rendered and filled.
	EventResultHit
	EventResultMiss
	// EventMaterialized is one encode/decode round trip of an unoptimized
	// plan's intermediate at a materialized operator boundary. Its encode
	// and decode also count under StageEncode and StageDecode.
	EventMaterialized

	numEvents = 6
)

// Process-wide event instruments, updated by every Inc, recorder or not.
// Cache lookups have none here: the cache keeps its own hit and miss
// counters.
var eventTotals = [numEvents]*Counter{
	EventConcealed: Default().Counter("v2v_frames_concealed_total",
		"Corrupt or undecodable packets concealed by holding the last good frame."),
}

// Recorder is one node of a request's tree: a named, timed part of the
// work (a request, a front-end stage, an execution, a segment, a shard)
// with its trace attributes and track, and what it counted: per-stage
// frames, bytes and wall time, and events. It is the engine's one account
// of work and time: exec.Metrics, EXPLAIN ANALYZE actuals, the flight
// record and the Chrome trace all read it.
//
// What a node counts also counts toward its ancestors. A node bound to a
// Trace, and every node opened under it afterwards, adds one event to it
// when it ends. Counting is lock-free; every method is nil-safe (a nil
// recorder still feeds the process-wide metrics) and safe for concurrent
// use by shard workers.
type Recorder struct {
	parent *Recorder
	name   string
	start  time.Time
	tr     *Trace // written into at End; inherited by children
	tid    int64  // the node's track in tr

	mu       sync.Mutex
	end      time.Time // zero while open
	attrs    map[string]any
	children []*Recorder

	frames [numStages]atomic.Int64
	bytes  [numStages]atomic.Int64
	wallNS [numStages]atomic.Int64
	events [numEvents]atomic.Int64
}

// NewRecorder returns an unnamed root node, started now.
func NewRecorder() *Recorder { return &Recorder{start: time.Now()} }

// Bind makes r and the nodes opened under it from now on write their
// events to t, on t's main track. A nil t leaves r as it is. It returns r.
func (r *Recorder) Bind(t *Trace) *Recorder {
	if r != nil && t != nil {
		r.tr, r.tid = t, mainThread
	}
	return r
}

// Trace returns the trace r writes into, or nil. Nil-safe.
func (r *Recorder) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.tr
}

// Child opens a node named name for one part of r's work, on r's track.
// Nil-safe: a nil recorder's child is an unbound root.
func (r *Recorder) Child(name string) *Recorder {
	c := &Recorder{parent: r, name: name, start: time.Now()}
	if r != nil {
		c.tr, c.tid = r.tr, r.tid
		r.mu.Lock()
		r.children = append(r.children, c)
		r.mu.Unlock()
	}
	return c
}

// Track opens a child on a fresh track of r's trace, so work running in
// parallel with its siblings (a shard worker) renders as its own row.
func (r *Recorder) Track(name string) *Recorder {
	c := r.Child(name)
	if c.tr != nil {
		c.tid = c.tr.newTID()
	}
	return c
}

// SetAttr attaches a key/value argument to r's trace event. It records
// nothing unless r is bound to a trace.
func (r *Recorder) SetAttr(key string, value any) {
	if r == nil || r.tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attrs == nil {
		r.attrs = map[string]any{}
	}
	r.attrs[key] = value
}

// End closes r and, if it is bound, adds its event to the trace.
// Idempotent.
func (r *Recorder) End() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.end.IsZero() {
		r.mu.Unlock()
		return
	}
	r.end = time.Now()
	attrs := r.attrs
	r.mu.Unlock()
	if r.tr != nil {
		r.tr.record(traceEvent{name: r.name, tid: r.tid, ts: r.start.Sub(r.tr.start), dur: r.end.Sub(r.start), args: attrs})
	}
}

// Wall returns r's duration: start to End, or to now while it is open.
// Nil-safe.
func (r *Recorder) Wall() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.end.IsZero() {
		return time.Since(r.start)
	}
	return r.end.Sub(r.start)
}

// Parts returns the wall time of r's children by name (children of one
// name sum) and their total. For a node whose children run one after
// another, r.Wall() minus that total is the time none of them accounts
// for. Nil-safe.
func (r *Recorder) Parts() (map[string]time.Duration, time.Duration) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	children := r.children
	r.mu.Unlock()
	parts := make(map[string]time.Duration, len(children))
	var sum time.Duration
	for _, c := range children {
		w := c.Wall()
		parts[c.name] += w
		sum += w
	}
	return parts, sum
}

// StageObserve records one stage operation: frames and bytes processed and
// the wall time spent. The process-wide stage metrics are always updated;
// the recorder's own counters only when r is non-nil.
//
//v2v:hotpath
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

// Inc counts one event, in r and its ancestors and in the event's
// process-wide counter, if it has one.
//
//v2v:hotpath
func (r *Recorder) Inc(e Event) {
	if c := eventTotals[e]; c != nil {
		c.Inc()
	}
	for ; r != nil; r = r.parent {
		r.events[e].Add(1)
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

// Work is a snapshot of what a recorder counted, in the units EXPLAIN
// ANALYZE, the flight record and exec.Metrics report. Stage walls are
// summed operation wall time (shard-parallel work sums, so a stage wall
// can exceed the elapsed time). Decode and filter bytes are pixel bytes,
// encode bytes encoded packet bytes.
type Work struct {
	// FramesDecoded counts every decode: source frames, and the
	// intermediates of materialized boundaries.
	FramesDecoded int64 `json:"frames_decoded,omitempty"`
	// FramesEncoded counts frames encoded into the output: every encode
	// but the materialized boundaries'.
	FramesEncoded int64 `json:"frames_encoded,omitempty"`
	// Materialized counts materialized operator boundaries, each one
	// decode in FramesDecoded and one encode left out of FramesEncoded.
	Materialized int64 `json:"materialized,omitempty"`
	// PacketsCopied and BytesCopied count stream-copied output packets.
	PacketsCopied int64 `json:"packets_copied,omitempty"`
	BytesCopied   int64 `json:"bytes_copied,omitempty"`
	// Concealed counts concealed source packets (EventConcealed).
	Concealed int64 `json:"concealed,omitempty"`
	// The cache lookups (EventGOPHit and the rest); zero without a cache
	// of that kind.
	GOPCacheHits      int64 `json:"gop_cache_hits,omitempty"`
	GOPCacheMisses    int64 `json:"gop_cache_misses,omitempty"`
	ResultCacheHits   int64 `json:"result_cache_hits,omitempty"`
	ResultCacheMisses int64 `json:"result_cache_misses,omitempty"`

	DecodeWall   time.Duration `json:"decode_wall_ns,omitempty"`
	FilterWall   time.Duration `json:"filter_wall_ns,omitempty"`
	EncodeWall   time.Duration `json:"encode_wall_ns,omitempty"`
	DecodeBytes  int64         `json:"decode_bytes,omitempty"`
	FilterFrames int64         `json:"filter_frames,omitempty"`
	FilterBytes  int64         `json:"filter_bytes,omitempty"`
	EncodeBytes  int64         `json:"encode_bytes,omitempty"`
}

// Work returns a snapshot of r. Nil-safe (returns zeros).
func (r *Recorder) Work() Work {
	if r == nil {
		return Work{}
	}
	dec, flt, enc, cp := r.Stage(StageDecode), r.Stage(StageFilter), r.Stage(StageEncode), r.Stage(StageCopy)
	mat := r.events[EventMaterialized].Load()
	return Work{
		FramesDecoded: dec.Frames, FramesEncoded: enc.Frames - mat, Materialized: mat,
		PacketsCopied: cp.Frames, BytesCopied: cp.Bytes,
		Concealed:    r.events[EventConcealed].Load(),
		GOPCacheHits: r.events[EventGOPHit].Load(), GOPCacheMisses: r.events[EventGOPMiss].Load(),
		ResultCacheHits: r.events[EventResultHit].Load(), ResultCacheMisses: r.events[EventResultMiss].Load(),
		DecodeWall: dec.Wall, DecodeBytes: dec.Bytes,
		FilterWall: flt.Wall, FilterFrames: flt.Frames, FilterBytes: flt.Bytes,
		EncodeWall: enc.Wall, EncodeBytes: enc.Bytes,
	}
}

// NewTraceID returns a fresh 16-hex-digit request/trace identifier, the
// join key shared by a request's log lines, flight-recorder entry, and
// trace.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// recognizable constant rather than an empty ID.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
