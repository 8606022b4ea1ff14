// Command v2v synthesizes a video from a declarative spec file.
//
// Usage:
//
//	v2v [flags] spec.v2v output.vmf
//
// The spec may be in the textual grammar or the JSON format (detected by a
// leading '{'). Flags toggle the pipeline stages so unoptimized and
// optimized runs can be compared, -explain prints the plan without
// executing it, -explain-analyze executes and prints the plan annotated
// with measured per-segment costs, and -trace writes a Chrome trace_event
// file covering every pipeline stage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"v2v"
	"v2v/internal/cliutil"
	"v2v/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "v2v:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("v2v", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		noOpt     = fs.Bool("no-opt", false, "disable the plan optimizer")
		noRewrite = fs.Bool("no-data-rewrite", false, "disable data-dependent spec rewriting")
		parallel  = fs.Int("parallel", 0, "shard parallelism (0 = GOMAXPROCS)")
		explain   = fs.Bool("explain", false, "print the plan instead of executing")
		analyze   = fs.Bool("explain-analyze", false, "execute, then print the plan annotated with measured per-segment costs")
		dot       = fs.Bool("dot", false, "with -explain, print Graphviz DOT")
		stats     = fs.Bool("stats", false, "print execution metrics")
		traceOut  = fs.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
		timeout   = fs.Duration("timeout", 0, "abort synthesis after this long (0 = no limit); a timed-out run leaves no partial output")
		strict    = fs.Bool("strict", false, "fail fast on corrupt or undecodable source packets instead of concealing them")
		cacheMB   = fs.Int("gop-cache-mb", 0, "decoded-GOP share of the cache budget in MiB, shared by all shards (0 = sized for -parallel, -1 = disable)")
		resMB     = fs.Int("result-cache-mb", -1, "encoded-result share of the cache budget in MiB (0 = 256 MiB default, -1 = disable; one-shot runs only benefit when segments repeat within the plan)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: v2v [flags] spec.v2v output.vmf\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := errors.Join(
		cliutil.ValidateParallel("-parallel", *parallel),
		cliutil.ValidateTimeout("-timeout", *timeout),
		cliutil.ValidateCacheMB("-gop-cache-mb", *cacheMB),
		cliutil.ValidateCacheMB("-result-cache-mb", *resMB),
	); err != nil {
		return err
	}

	rest := fs.Args()
	if *explain || *analyze {
		if len(rest) < 1 {
			fs.Usage()
			return fmt.Errorf("-explain/-explain-analyze need a spec file")
		}
	} else if len(rest) != 2 {
		fs.Usage()
		return fmt.Errorf("want a spec file and an output path, got %d arguments", len(rest))
	}

	// The run's root recorder: its children are the pipeline's stages, it
	// backs the -stats per-stage breakdown, and with -trace it is bound to
	// the exported trace.
	rec := v2v.NewRecorder()
	var tr *v2v.Trace
	if *traceOut != "" {
		tr = v2v.NewTrace("v2v " + rest[0])
		// Stamp the trace with a run ID so its export joins the same
		// run's metrics and flight records when loaded alongside them.
		tr.SetID(v2v.NewTraceID())
		rec.Bind(tr)
	}

	node := rec.Child("parse")
	spec, err := v2v.LoadSpec(rest[0])
	node.End()
	if err != nil {
		return err
	}
	opts := core.Options{
		Optimize:    !*noOpt,
		DataRewrite: !*noRewrite,
		Parallelism: *parallel,
		Conceal:     !*strict,
		Recorder:    rec,
	}
	par := *parallel
	if par == 0 {
		par = runtime.GOMAXPROCS(0) // as the pipeline resolves -parallel 0
	}
	opts.Cache = v2v.NewCache(int64(*cacheMB)<<20, int64(*resMB)<<20, par)
	// Whatever path exits, flush the trace if one was requested; a failed
	// write fails the run (unless it is already failing for another reason).
	defer func() {
		if tr != nil {
			if werr := tr.WriteJSONFile(*traceOut); werr != nil && retErr == nil {
				retErr = fmt.Errorf("writing trace: %w", werr)
			}
		}
	}()

	if *explain {
		var out string
		if *dot {
			out, err = v2v.ExplainDOT(spec, opts)
		} else {
			out, err = v2v.Explain(spec, opts)
		}
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
		return nil
	}

	outPath := ""
	if len(rest) >= 2 {
		outPath = rest[1]
	} else {
		// -explain-analyze without an output path executes into a
		// throwaway file: the measurements are the product.
		tmp, err := os.MkdirTemp("", "v2v-analyze-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		outPath = filepath.Join(tmp, "out.vmf")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := v2v.SynthesizeContext(ctx, spec, outPath, opts)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("synthesis timed out after %v (no output written)", *timeout)
		}
		return err
	}
	if n := res.Metrics.TotalConcealed(); n > 0 {
		fmt.Fprintf(stderr, "v2v: concealed %d corrupt frame(s); rerun with -strict to fail on corruption\n", n)
	}
	if *analyze {
		fmt.Fprint(stdout, v2v.ExplainAnalyze(res))
	}
	if *stats {
		m := res.Metrics
		fmt.Fprintf(stdout, "wall            %v\n", m.Wall)
		fmt.Fprintf(stdout, "first output    %v\n", m.FirstOutput)
		fmt.Fprintf(stdout, "source decodes  %d\n", m.Source.FramesDecoded)
		fmt.Fprintf(stdout, "intermediate    %d enc / %d dec\n", m.Intermediate.FramesEncoded, m.Intermediate.FramesDecoded)
		fmt.Fprintf(stdout, "output encodes  %d\n", m.Output.FramesEncoded)
		fmt.Fprintf(stdout, "packets copied  %d (%d bytes)\n", m.Output.PacketsCopied, m.Output.BytesCopied)
		if n := m.TotalConcealed(); n > 0 {
			fmt.Fprintf(stdout, "frames concealed %d\n", n)
		}
		stages := rec.Stages()
		for _, name := range []string{"decode", "filter", "encode", "copy"} {
			st := stages[name]
			if st.Frames == 0 && st.Wall == 0 {
				continue
			}
			fmt.Fprintf(stdout, "stage %-9s %d frames, %d bytes, %v\n", name, st.Frames, st.Bytes, st.Wall)
		}
		if cs := m.GOPCache; cs != nil && cs.Hits+cs.Misses > 0 {
			fmt.Fprintf(stdout, "gop cache       %d hits / %d misses, %d evictions, %d MiB resident (share %d MiB)\n",
				cs.Hits, cs.Misses, cs.Evictions, cs.Bytes>>20, cs.Budget>>20)
		}
		if cs := m.ResultCache; cs != nil && cs.Hits+cs.Misses > 0 {
			fmt.Fprintf(stdout, "result cache    %d hits / %d misses, %d evictions, %d KiB resident (share %d MiB)\n",
				cs.Hits, cs.Misses, cs.Evictions, cs.Bytes>>10, cs.Budget>>20)
		}
		if !res.RewriteStats.Skipped {
			fmt.Fprintf(stdout, "data rewrites   %v (arms %d -> %d)\n",
				res.RewriteStats.Applied, res.RewriteStats.ArmsBefore, res.RewriteStats.ArmsAfter)
		}
	}
	if len(rest) >= 2 {
		fmt.Fprintf(stdout, "wrote %s\n", rest[1])
	}
	return nil
}
