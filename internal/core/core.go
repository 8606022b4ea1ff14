// Package core is the V2V system façade: it wires the paper's pipeline —
// data-aware rewriting (§IV-C), checking (§III-B), planning (§III-C),
// heuristic optimization (§III-D), and execution (§IV-A) — behind one
// Synthesize call, with every stage independently toggleable so the
// evaluation harness can run unoptimized, optimized, and ablated
// configurations of the same spec.
package core

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"v2v/internal/check"
	"v2v/internal/exec"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/opt"
	"v2v/internal/plan"
	"v2v/internal/rational"
	"v2v/internal/rewrite"
	"v2v/internal/sqlmini"
	"v2v/internal/vql"
)

// Options configures a synthesis run.
type Options struct {
	// Optimize runs the heuristic plan optimizer. Off reproduces the
	// paper's "unoptimized" bars.
	Optimize bool
	// DataRewrite runs the data-dependent spec rewriter before planning.
	DataRewrite bool
	// OptPasses overrides the optimizer pass selection (nil = all passes
	// when Optimize is set). Used by the ablation benchmarks.
	OptPasses *opt.Options
	// Parallelism caps the optimizer's shard fan-out and the executor's
	// concurrently rendering shard workers (0 = GOMAXPROCS; 1 executes the
	// plan strictly one shard after another). Zero is resolved here and the
	// optimizer and executor are handed the same number, so with an
	// explicit value plan shape does not depend on the host.
	Parallelism int
	// DB provides tables for sql-declared data arrays.
	DB *sqlmini.DB
	// Conceal switches execution from fail-fast to error-concealment mode:
	// corrupt or undecodable source packets are replaced by holding the
	// last good frame instead of failing the synthesis. See exec.Options.
	Conceal bool
	// Cache, when non-nil, holds decoded source GOPs, rendered segments'
	// encoded output and parsed data files across runs: share one to
	// reuse decodes between runs, to splice a repeated or overlapping
	// query's cached packets instead of rendering, and to parse each
	// annotation file once. Nil disables caching. See exec.Options.Cache
	// and check.Options.Cache.
	Cache *media.Cache
	// Recorder, when set, is the node the run's stages open theirs under:
	// parse (SynthesizeSource), check, rewrite, plan, optimize and execute,
	// which has one child per segment and per shard. Their per-stage
	// (decode/filter/encode/copy) frames, bytes and wall time count toward
	// it; v2vserve passes each request's root here. Bind it to an
	// obs.Trace to export every node as a Chrome trace event, with one more
	// per optimizer pass.
	Recorder *obs.Recorder
}

// resolved returns o with a zero Parallelism replaced by GOMAXPROCS — the
// only place in the library that asks the runtime how many cores there are.
func (o Options) resolved() Options {
	if o.Parallelism < 1 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// DefaultOptions enables the full V2V pipeline.
func DefaultOptions() Options {
	return Options{Optimize: true, DataRewrite: true}
}

// Result reports everything a synthesis run produced.
type Result struct {
	OutPath      string
	Plan         *plan.Plan
	Metrics      *exec.Metrics
	RewriteStats rewrite.Stats
	OptStats     opt.Stats
}

// Plan validates the spec and produces the (optionally rewritten and
// optimized) execution plan without running it — the EXPLAIN entry point.
func Plan(spec *vql.Spec, o Options) (p *plan.Plan, rStats rewrite.Stats, oStats opt.Stats, err error) {
	o = o.resolved()
	// stage runs f as a child node of o.Recorder named name.
	stage := func(name string, f func(*obs.Recorder) error) error {
		node := o.Recorder.Child(name)
		defer node.End()
		err := f(node)
		if err != nil {
			node.SetAttr("error", err.Error())
		}
		return err
	}
	var checked *check.Checked
	err = stage("check", func(node *obs.Recorder) (err error) {
		if checked, err = check.Check(spec, check.Options{DB: o.DB, Cache: o.Cache}); err != nil {
			return err
		}
		node.SetAttr("videos", len(checked.Sources))
		node.SetAttr("arrays", len(checked.Arrays))
		node.SetAttr("passthrough", checked.Passthrough)
		return nil
	})
	if err == nil && o.DataRewrite {
		err = stage("rewrite", func(node *obs.Recorder) error {
			rewritten, stats, err := rewrite.Rewrite(checked)
			if err != nil {
				return fmt.Errorf("core: data rewrite: %w", err)
			}
			rStats = stats
			node.SetAttr("skipped", stats.Skipped)
			node.SetAttr("times_evaluated", stats.TimesEvaluated)
			node.SetAttr("arms_before", stats.ArmsBefore)
			node.SetAttr("arms_after", stats.ArmsAfter)
			for name, n := range stats.Applied {
				// One attribute per data-dependent rewrite that fired.
				node.SetAttr("applied."+name, n)
			}
			if rewritten != checked.Spec {
				// The rewritten spec references the same sources and arrays
				// (its dependencies are a subset of the validated originals),
				// so the checked context carries over with the new render.
				c2 := *checked
				c2.Spec = rewritten
				checked = &c2
			}
			return nil
		})
	}
	if err == nil {
		err = stage("plan", func(node *obs.Recorder) (err error) {
			if p, err = plan.Build(checked); err == nil {
				node.SetAttr("segments", len(p.Segments))
			}
			return err
		})
	}
	if err == nil && o.Optimize {
		err = stage("optimize", func(node *obs.Recorder) (err error) {
			passes := opt.Default()
			if o.OptPasses != nil {
				passes = *o.OptPasses
			}
			passes.Parallelism = o.Parallelism
			passes.Trace = node.Trace()
			if oStats, err = opt.Optimize(p, passes); err != nil {
				return fmt.Errorf("core: optimize: %w", err)
			}
			node.SetAttr("segments_merged", oStats.SegmentsMerged)
			node.SetAttr("filters_merged", oStats.FiltersMerged)
			node.SetAttr("copies", oStats.Copies)
			node.SetAttr("smart_cuts", oStats.SmartCuts)
			node.SetAttr("sharded_segments", oStats.ShardedSegs)
			return nil
		})
	}
	if err != nil {
		return nil, rStats, oStats, err
	}
	return p, rStats, oStats, nil
}

// Prepared is a planned-but-not-yet-executed synthesis: the output of the
// front half of the pipeline (check, rewrite, plan, optimize), carrying
// the plan's cost estimate. v2vserve plans every request before admission
// so the admission controller can weigh it by estimated cost, then
// executes the prepared plan once admitted — without re-running the
// planner.
type Prepared struct {
	Plan         *plan.Plan
	RewriteStats rewrite.Stats
	OptStats     opt.Stats
}

// EstimatedCost returns the prepared plan's total static cost estimate.
func (pr *Prepared) EstimatedCost() plan.Cost { return pr.Plan.EstimatedCost() }

// Prepare runs the pipeline front half: validate, rewrite, plan,
// optimize. The returned Prepared can be executed once.
func Prepare(spec *vql.Spec, o Options) (*Prepared, error) {
	p, rStats, oStats, err := Plan(spec, o)
	if err != nil {
		return nil, err
	}
	return &Prepared{Plan: p, RewriteStats: rStats, OptStats: oStats}, nil
}

// SynthesizeStreamContext executes the prepared plan, delivering the
// result progressively to w in the VMS stream format (see the package
// SynthesizeStreamContext). If w has a Flush method it is called after the
// header and after each segment. The executor-facing options (caches,
// recorder, parallelism, concealment) are read from o; planning options
// were already consumed by Prepare.
func (pr *Prepared) SynthesizeStreamContext(ctx context.Context, w io.Writer, o Options) (*Result, error) {
	info := pr.Plan.Checked.Output
	info.Start = rational.Zero
	sink, err := media.NewStreamWriter(w, info)
	if err != nil {
		return nil, err
	}
	metrics, err := exec.ExecuteTo(ctx, pr.Plan, sink, execOptions(o.resolved()))
	if err != nil {
		return nil, err
	}
	return &Result{
		Plan:         pr.Plan,
		Metrics:      metrics,
		RewriteStats: pr.RewriteStats,
		OptStats:     pr.OptStats,
	}, nil
}

// execOptions translates core options to executor options.
func execOptions(o Options) exec.Options {
	return exec.Options{
		Parallelism: o.Parallelism, Conceal: o.Conceal,
		Cache: o.Cache, Recorder: o.Recorder,
	}
}

// Synthesize runs the full pipeline and writes the result video to
// outPath.
func Synthesize(spec *vql.Spec, outPath string, o Options) (*Result, error) {
	// context-free compat wrapper; callers wanting cancellation use SynthesizeContext
	return SynthesizeContext(context.Background(), spec, outPath, o)
}

// SynthesizeContext is Synthesize with cooperative cancellation: the
// executor checks ctx before every segment and before every frame each
// shard worker renders. A cancelled run returns ctx.Err() and leaves
// nothing at outPath.
func SynthesizeContext(ctx context.Context, spec *vql.Spec, outPath string, o Options) (*Result, error) {
	o = o.resolved()
	p, rStats, oStats, err := Plan(spec, o)
	if err != nil {
		return nil, err
	}
	metrics, err := exec.Execute(ctx, p, outPath, execOptions(o))
	if err != nil {
		return nil, err
	}
	return &Result{
		OutPath:      outPath,
		Plan:         p,
		Metrics:      metrics,
		RewriteStats: rStats,
		OptStats:     oStats,
	}, nil
}

// SynthesizeSource parses the textual spec grammar and synthesizes it.
func SynthesizeSource(src, outPath string, o Options) (*Result, error) {
	// context-free compat wrapper; callers wanting cancellation use SynthesizeSourceContext
	return SynthesizeSourceContext(context.Background(), src, outPath, o)
}

// SynthesizeSourceContext is SynthesizeSource with cooperative
// cancellation; see SynthesizeContext.
func SynthesizeSourceContext(ctx context.Context, src, outPath string, o Options) (*Result, error) {
	node := o.Recorder.Child("parse")
	spec, err := vql.Parse(src)
	node.End()
	if err != nil {
		return nil, err
	}
	return SynthesizeContext(ctx, spec, outPath, o)
}

// SynthesizeStream runs the pipeline and delivers the result progressively
// to w in the VMS stream format: packets flow as segments complete, so a
// consumer can begin playback while later segments are still rendering —
// the paper's "begin playback within seconds" property. The result's
// Metrics.FirstOutput records the latency to the first packet.
func SynthesizeStream(spec *vql.Spec, w io.Writer, o Options) (*Result, error) {
	// context-free compat wrapper; callers wanting cancellation use SynthesizeStreamContext
	return SynthesizeStreamContext(context.Background(), spec, w, o)
}

// SynthesizeStreamContext is SynthesizeStream with cooperative
// cancellation. A cancelled run ends the stream with the typed error
// trailer, so consumers read media.ErrStreamFailed rather than a
// spuriously clean end.
func SynthesizeStreamContext(ctx context.Context, spec *vql.Spec, w io.Writer, o Options) (*Result, error) {
	pr, err := Prepare(spec, o)
	if err != nil {
		return nil, err
	}
	return pr.SynthesizeStreamContext(ctx, w, o)
}
