// Command v2vbench regenerates the paper's evaluation figures as text
// tables: Fig. 3 (ToS, unoptimized vs optimized), Fig. 4 (KABR), and
// Fig. 5 (data-joining queries vs the Python+OpenCV-equivalent baseline),
// plus the optimizer-pass ablation and the serving overload sweep. The
// fault-injection suite is `make chaos`, a go test run. Per-layer and
// end-to-end performance of the current tree is the job of the repository
// benchmark (go run ./bench).
//
// Usage:
//
//	v2vbench -fig 3            # Fig. 3 table (ToS-sim)
//	v2vbench -fig 4            # Fig. 4 table (KABR-sim)
//	v2vbench -fig 5 [-stats]   # Fig. 5 table (both datasets)
//	v2vbench -fig ablate       # per-pass ablation table
//	v2vbench -fig overload [-seed N]  # overload sweep: goodput, p99, shed rate at 1x/4x/16x offered load (KABR-sim)
//	v2vbench -fig all -scale full -repeats 5
//
// Absolute times depend on the host; the shape — who wins, by what factor,
// and where smart cuts fail to apply — is the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"

	"v2v/internal/benchkit"
	"v2v/internal/core"
	"v2v/internal/vql"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 3, 4, 5, ablate, overload, or all")
		scale    = flag.String("scale", "quick", "dataset scale: quick or full (paper-shaped durations)")
		repeats  = flag.Int("repeats", 3, "measured runs per configuration (after one warm-up)")
		parallel = flag.Int("parallel", 0, "shard parallelism (0 = GOMAXPROCS)")
		dir      = flag.String("data", benchkit.DefaultDir(), "dataset cache directory")
		stats    = flag.Bool("stats", false, "with -fig 5, print data-rewrite statistics")
		seed     = flag.Int64("seed", 1, "seed for the -fig overload bursts (equal seeds replay equal arrivals)")
	)
	flag.Parse()

	sc := benchkit.QuickScale()
	if *scale == "full" {
		sc = benchkit.FullScale()
	}
	outDir, err := os.MkdirTemp("", "v2vbench-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(outDir)

	cfg := benchkit.Config{
		Scale:       sc,
		OutDir:      outDir,
		Parallelism: *parallel,
		Repeats:     *repeats,
	}

	need3 := *fig == "3" || *fig == "all"
	need4 := *fig == "4" || *fig == "all"
	need5 := *fig == "5" || *fig == "all"
	needAblate := *fig == "ablate" || *fig == "all"
	needOverload := *fig == "overload" || *fig == "all"
	if !need3 && !need4 && !need5 && !needAblate && !needOverload {
		fmt.Fprintf(os.Stderr, "v2vbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	var tos, kabr *benchkit.Dataset
	if need3 || need5 {
		fmt.Fprintln(os.Stderr, "provisioning ToS-sim ...")
		tos, err = benchkit.ProvisionToS(*dir, sc)
		if err != nil {
			fatal(err)
		}
	}
	if need4 || need5 || needAblate || needOverload {
		fmt.Fprintln(os.Stderr, "provisioning KABR-sim ...")
		kabr, err = benchkit.ProvisionKABR(*dir, sc)
		if err != nil {
			fatal(err)
		}
	}

	if need3 {
		rows, err := benchkit.CompareRun(tos, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(benchkit.FormatCompare("Fig. 3 — ToS-sim: V2V synthesis, unoptimized vs optimized", rows))
	}
	if need4 {
		rows, err := benchkit.CompareRun(kabr, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(benchkit.FormatCompare("Fig. 4 — KABR-sim: V2V synthesis, unoptimized vs optimized", rows))
	}
	if need5 {
		var rows []benchkit.DataJoinRow
		for _, ds := range []*benchkit.Dataset{tos, kabr} {
			r, err := benchkit.DataJoinRun(ds, cfg)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, r...)
		}
		fmt.Println(benchkit.FormatDataJoin("Fig. 5 — data-joining queries: Python+OpenCV-equivalent vs V2V", rows))
		if *stats {
			printRewriteStats(tos, sc)
			printRewriteStats(kabr, sc)
		}
	}
	if needOverload {
		rows, err := benchkit.OverloadRun(kabr, cfg, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(benchkit.FormatOverload("Overload — KABR-sim Q4 bursts at 1x/4x/16x the measured service rate", rows))
	}
	if needAblate {
		rows, err := benchkit.AblationRun(kabr, "Q7", cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(benchkit.FormatAblation("Ablation — optimizer passes on KABR-sim Q7 (4-segment splice)", rows))
	}
}

// printRewriteStats reports what the data-dependent rewriter did on the
// Q10 spec of the dataset (the §V-A discussion of removed BoundingBox
// filters).
func printRewriteStats(ds *benchkit.Dataset, sc benchkit.Scale) {
	q, _ := benchkit.QueryByID("Q10")
	spec, err := vql.Parse(q.BuildSpecSource(ds, sc))
	if err != nil {
		fatal(err)
	}
	_, rs, os_, err := core.Plan(spec, core.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s Q10 data-rewrite: boxes f_dde fired %d times, arms %d -> %d; optimizer made %d copies + %d smart cuts\n",
		ds.Name, rs.Applied["boxes"], rs.ArmsBefore, rs.ArmsAfter, os_.Copies, os_.SmartCuts)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "v2vbench:", err)
	os.Exit(1)
}
