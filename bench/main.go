// Command bench is the repository's benchmark: four seeded workloads that
// drive the engine the two ways its users do — in process through the
// public v2v package, and over HTTP against the built cmd/v2vserve binary
// — check every output, and report end-to-end metrics (tracing off) and a
// per-layer table (a traced pass). See bench/README.md.
//
//	go run ./bench                          all workloads, traced pass included
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                        one workload; the last line of
//	                                        standard output is the driver's JSON
//	go run ./bench -smoke                   every workload, part of a round each
//	go run ./bench -agree [a.json b.json]   run twice (or compare two results)
//	                                        and check the bounds
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print the driver's JSON line (default: all four)")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs: clip offsets, op order, hot/fresh draws")
		seconds   = flag.Float64("seconds", 30, "timed window of the untraced pass, per workload; the traced pass gets a quarter of it")
		trace     = flag.Int("trace", 1, "1: also run the traced pass and the probes, and report per-layer metrics; 0: end-to-end only")
		smoke     = flag.Bool("smoke", false, "quick check of every workload (about 30 s): one set-up, half a round timed, a quarter of a round traced")
		doAgree   = flag.Bool("agree", false, "run the full set twice, or compare the two result files given as arguments, and fail if an end-to-end metric differs by more than its bound")
		addGolden = flag.Bool("write-golden", false, "add this run's reference pixel digests to "+goldenPath)
	)
	flag.Parse()
	if err := requireRepoRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	// ^C or SIGTERM cancels the context: passes stop, the server child is
	// terminated and waited for, temp dirs are removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	n := min(runtime.NumCPU(), 4)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, parallel: n, clients: n}
	var err error
	if cfg.golden, err = loadGolden(); err != nil {
		fatal(err)
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{*w}
	}

	if *doAgree {
		os.Exit(runAgree(ctx, cfg, selected, flag.Args()))
	}
	res, err := runAll(ctx, cfg, selected, filepath.Join(outDir, "result.json"))
	if err != nil {
		fatal(err)
	}
	if *addGolden {
		for _, w := range res.Workloads {
			for k, d := range w.refs {
				cfg.golden[k] = d
			}
		}
		if err := writeGolden(cfg.golden); err != nil {
			fatal(err)
		}
	}
	failed := false
	for _, w := range res.Workloads {
		failed = failed || len(w.Failures) > 0
	}
	if *name != "" {
		fmt.Println(driverLine(res.Workloads[*name], cfg.trace))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runAll runs the selected workloads one after another, prints their
// tables, and writes the result file and the trace next to it.
func runAll(ctx context.Context, cfg config, selected []workload, resultPath string) (*resultFile, error) {
	res := &resultFile{Schema: 1, Env: collectEnv(cfg), Workloads: map[string]*workloadResult{}}
	fmt.Printf("bench: seed %d, P=%d engine workers, C=%d clients, %.0f s per workload, %s\n",
		cfg.seed, cfg.parallel, cfg.clients, cfg.seconds, res.Env.CPUModel)
	spans := map[string][]span{}
	for i := range selected {
		w := &selected[i]
		r, err := runWorkload(ctx, w, cfg)
		if err != nil {
			return nil, err
		}
		res.Workloads[w.Name] = r
		spans[w.Name] = r.spans
		printWorkload(os.Stdout, r)
	}
	if err := writeJSON(resultPath, res); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := writeTrace(filepath.Join(filepath.Dir(resultPath), "trace.json"), spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runAgree compares two result files — the ones named, or two fresh runs
// of the selected workloads — against the bounds in BENCHMARK.json and
// returns the exit code.
func runAgree(ctx context.Context, cfg config, selected []workload, files []string) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	var a, b *resultFile
	switch len(files) {
	case 0:
		if a, err = runAll(ctx, cfg, selected, filepath.Join(outDir, "agree-a", "result.json")); err != nil {
			fatal(err)
		}
		if b, err = runAll(ctx, cfg, selected, filepath.Join(outDir, "agree-b", "result.json")); err != nil {
			fatal(err)
		}
	case 2:
		if a, err = readResult(files[0]); err != nil {
			fatal(err)
		}
		if b, err = readResult(files[1]); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("-agree takes no arguments (run twice) or two result files"))
	}
	if !agree(os.Stdout, a, b, bf) {
		return 1
	}
	return 0
}
