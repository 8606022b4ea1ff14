// Package v2v is the public API of the V2V video result synthesis engine,
// a reproduction of "V2V: Efficiently Synthesizing Video Results for Video
// Queries" (ICDE 2024).
//
// V2V takes a declarative synthesis spec — a time domain, a render
// function over input videos and relational data arrays, and source
// bindings — and produces a single edited output video. Specs are
// data-aware rewritten, type-checked, lowered to a Concat/Clip/Filter
// plan, optimized (stream copies, smart cuts, operator merging, temporal
// sharding), and executed in parallel.
//
// Quick start:
//
//	spec, err := v2v.ParseSpec(`
//	    timedomain range(0, 10, 1/24);
//	    videos { cam: "footage.vmf"; }
//	    render(t) = zoom(cam[t + 60], 2);
//	`)
//	res, err := v2v.Synthesize(spec, "highlight.vmf", v2v.DefaultOptions())
//
// The module is self-contained: it ships its own media substrate (the VMF
// container and GV1 codec under internal/), standing in for MP4/H.264 +
// FFmpeg while preserving the structural properties the optimizer exploits
// (GOPs, encode ≫ decode ≫ copy).
package v2v

import (
	"context"
	"fmt"
	"io"
	"os"

	"v2v/internal/core"
	"v2v/internal/exec"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/opt"
	"v2v/internal/rewrite"
	"v2v/internal/sqlmini"
	"v2v/internal/vql"
)

// Spec is a declarative synthesis specification (see the package
// documentation for the grammar).
type Spec = vql.Spec

// Options configures a synthesis run.
type Options = core.Options

// OptimizerPasses selects individual optimizer passes, for ablation.
type OptimizerPasses = opt.Options

// Result reports a synthesis run: the plan, execution metrics, and
// rewrite/optimizer statistics.
type Result = core.Result

// Metrics summarizes execution work (frames decoded/encoded, packets
// copied, wall time).
type Metrics = exec.Metrics

// Cache is a concurrency-safe LRU of decoded source GOPs and encoded
// rendered segments under one byte budget. Shared by every shard worker of
// a run and, when reused across Options values, by concurrent runs: each
// source GOP is decoded once, and a repeated or overlapping query splices
// cached packets as a stream copy. Assign one to Options.Cache.
type Cache = media.Cache

// CacheStats is a point-in-time snapshot of one kind of cache entry's
// hit/miss/eviction counters and resident bytes.
type CacheStats = media.CacheStats

// NewCache returns a cache whose budget is gopBytes of decoded frames plus
// resultBytes of encoded segments. A negative share turns that kind off; 0
// selects the default share (for GOPs, sized for parallelism shard
// workers; for results, 256 MiB). With both kinds off it returns nil.
func NewCache(gopBytes, resultBytes int64, parallelism int) *Cache {
	return media.NewCache(gopBytes, resultBytes, parallelism)
}

// RewriteStats reports what the data-dependent rewriter did.
type RewriteStats = rewrite.Stats

// Trace is the Chrome trace_event export of a synthesis run (loadable in
// chrome://tracing or Perfetto): bind the run's Recorder to one
// (Recorder.Bind) and every pipeline stage, optimizer pass, segment and
// shard adds an event to it. Export it with WriteJSON.
type Trace = obs.Trace

// NewTrace starts an empty trace named name.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// NewTraceID returns a random 16-hex-character request/run identifier,
// suitable for Trace.SetID and for joining log lines to traces.
func NewTraceID() string { return obs.NewTraceID() }

// Recorder is the root of a synthesis run's tree of timed, counted
// nodes — assign one to Options.Recorder. It accumulates per-stage
// (decode/filter/encode/copy) frames, bytes, and wall time for the run.
// The process-wide v2v_stage_* metrics are fed whether or not a recorder
// is attached.
type Recorder = obs.Recorder

// NewRecorder returns an empty root recorder for one run.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// DB is the embedded relational engine used for sql-declared data arrays.
type DB = sqlmini.DB

// NewDB returns an empty relational database for sql data arrays.
func NewDB() *DB { return sqlmini.NewDB() }

// DefaultOptions enables the full pipeline: data-dependent rewriting plus
// the complete plan optimizer.
func DefaultOptions() Options { return core.DefaultOptions() }

// AllPasses returns the full optimizer pass set (for building ablated
// configurations by switching passes off).
func AllPasses() OptimizerPasses { return opt.Default() }

// ParseSpec parses the textual spec grammar.
func ParseSpec(src string) (*Spec, error) { return vql.Parse(src) }

// ParseSpecJSON parses the serialized JSON spec format.
func ParseSpecJSON(raw []byte) (*Spec, error) { return vql.UnmarshalSpecJSON(raw) }

// LoadSpec reads a spec file, accepting both the textual grammar and the
// JSON format (selected by a leading '{').
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("v2v: %w", err)
	}
	return vql.ParseAny(raw)
}

// FormatSpec renders a spec in the textual grammar.
func FormatSpec(s *Spec) string { return vql.Format(s) }

// MarshalSpecJSON renders a spec in the JSON format.
func MarshalSpecJSON(s *Spec) ([]byte, error) { return vql.MarshalSpecJSON(s) }

// Synthesize runs the full pipeline and writes the result video to
// outPath.
func Synthesize(spec *Spec, outPath string, o Options) (*Result, error) {
	return core.Synthesize(spec, outPath, o)
}

// SynthesizeContext is Synthesize with cooperative cancellation: the
// executor checks ctx before every segment and before every frame inside
// render loops. A cancelled or timed-out run stops promptly,
// returns ctx.Err(), and leaves nothing at outPath — output files are
// written to a temp path and only renamed into place on success.
func SynthesizeContext(ctx context.Context, spec *Spec, outPath string, o Options) (*Result, error) {
	return core.SynthesizeContext(ctx, spec, outPath, o)
}

// SynthesizeSource parses and synthesizes a textual spec.
func SynthesizeSource(src, outPath string, o Options) (*Result, error) {
	return core.SynthesizeSource(src, outPath, o)
}

// SynthesizeSourceContext is SynthesizeSource with cooperative
// cancellation; see SynthesizeContext.
func SynthesizeSourceContext(ctx context.Context, src, outPath string, o Options) (*Result, error) {
	return core.SynthesizeSourceContext(ctx, src, outPath, o)
}

// Explain returns the (optionally optimized) plan for a spec as an
// indented text tree without executing it.
func Explain(spec *Spec, o Options) (string, error) {
	p, _, _, err := core.Plan(spec, o)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// ExplainAnalyze renders an executed run's plan tree annotated with each
// segment's measured wall time and packet/frame counts — the analogue of
// relational EXPLAIN ANALYZE. When the run used caches, end-of-run cache
// occupancy/share summaries are appended as trailer lines, one per kind.
func ExplainAnalyze(res *Result) string {
	out := res.Plan.ExplainAnalyze(res.Metrics.Segments)
	if s := res.Metrics.GOPCache; s != nil {
		out += fmt.Sprintf("-- gopcache: %d hits %d misses %d evictions, %d entries %dB resident of %dB budget\n",
			s.Hits, s.Misses, s.Evictions, s.Entries, s.Bytes, s.Budget)
	}
	if s := res.Metrics.ResultCache; s != nil {
		out += fmt.Sprintf("-- rescache: %d hits %d misses %d evictions, %d entries %dB resident of %dB budget\n",
			s.Hits, s.Misses, s.Evictions, s.Entries, s.Bytes, s.Budget)
	}
	return out
}

// ExplainDOT returns the plan as a Graphviz digraph.
func ExplainDOT(spec *Spec, o Options) (string, error) {
	p, _, _, err := core.Plan(spec, o)
	if err != nil {
		return "", err
	}
	return p.DOT(), nil
}

// SynthesizeStream runs the pipeline and streams the result progressively
// to w in the VMS stream format (read it back with a media stream reader
// or cmd/v2vserve's fetch mode). Packets are delivered as their frames
// are encoded; Result.Metrics.FirstOutput records the latency to the first
// packet — the interactivity the paper targets.
func SynthesizeStream(spec *Spec, w io.Writer, o Options) (*Result, error) {
	return core.SynthesizeStream(spec, w, o)
}

// SynthesizeStreamContext is SynthesizeStream with cooperative
// cancellation — the entry point for request-scoped synthesis (a canceled
// request context stops the shard workers within one frame of work). A
// cancelled stream ends with the typed error trailer: consumers read
// media.ErrStreamFailed, not a spuriously clean end.
func SynthesizeStreamContext(ctx context.Context, spec *Spec, w io.Writer, o Options) (*Result, error) {
	return core.SynthesizeStreamContext(ctx, spec, w, o)
}
