// Command v2vbench regenerates the paper's evaluation figures as text
// tables: Fig. 3 (ToS, unoptimized vs optimized), Fig. 4 (KABR), and
// Fig. 5 (data-joining queries vs the Python+OpenCV-equivalent baseline).
//
// Usage:
//
//	v2vbench -fig 3            # Fig. 3 table (ToS-sim)
//	v2vbench -fig 4            # Fig. 4 table (KABR-sim)
//	v2vbench -fig 5 [-stats]   # Fig. 5 table (both datasets)
//	v2vbench -fig ablate       # per-pass ablation table
//	v2vbench -fig cache        # cache sweep: off / GOP cold+warm / GOP+result cold+warm (ToS-sim)
//	v2vbench -fig overload     # overload sweep: goodput, p99, shed rate at 1x/4x/16x offered load (KABR-sim)
//	v2vbench -fig streaming    # streaming sweep: TTFF and inter-segment gap at 1/4/16 concurrent streams (KABR-sim Q7)
//	v2vbench -fig pixels       # per-stage pixel pipeline: MB/s per filter, fused vs unfused 3-op chain, codec frames, allocs/frame
//	v2vbench -fig all -scale full -repeats 5
//	v2vbench -fig 4 -json bench.json -trace bench-trace.json
//	v2vbench -fig all -json BENCH_PR4.json -delta BENCH_PR3.json
//
// -json writes the raw per-query measurements as a JSON report for
// trajectory tracking; -delta diffs it against a prior report and flags
// regressions (-delta-out also writes the diff as markdown for CI job
// summaries); -trace records a Chrome trace_event profile of every run
// (load it in chrome://tracing or Perfetto).
//
// Absolute times depend on the host; the shape — who wins, by what factor,
// and where smart cuts fail to apply — is the reproduction target.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"v2v/internal/benchkit"
	"v2v/internal/core"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/vql"
)

// report is the -json output: metadata plus every per-query measurement,
// durations as seconds so downstream tooling needs no unit parsing.
type report struct {
	Scale       string         `json:"scale"`
	Repeats     int            `json:"repeats"`
	Parallelism int            `json:"parallelism"`
	Compare     []compareJSON  `json:"compare,omitempty"`
	DataJoin    []dataJoinJSON `json:"data_join,omitempty"`
	Ablation    []ablationJSON `json:"ablation,omitempty"`
	Cache       []cacheJSON     `json:"cache,omitempty"`
	Overload    []overloadJSON  `json:"overload,omitempty"`
	Streaming   []streamingJSON `json:"streaming,omitempty"`
	Pixels      []pixelsJSON    `json:"pixels,omitempty"`
}

type pixelsJSON struct {
	Stage  string `json:"stage"`
	Frames int    `json:"frames"`
	// MBPerSecond is plane throughput; SecondsPerMB and SecondsPerFrame
	// are the time-like forms the delta reporter compares.
	MBPerSecond     float64 `json:"mb_per_second"`
	SecondsPerMB    float64 `json:"seconds_per_mb"`
	SecondsPerFrame float64 `json:"seconds_per_frame"`
	AllocsPerFrame  float64 `json:"allocs_per_frame"`
	// Speedup and Identical are set on the fused chain row only: wall
	// ratio against the unfused chain and the SHA byte-identity check.
	Speedup   float64 `json:"speedup,omitempty"`
	Identical bool    `json:"identical,omitempty"`
}

type streamingJSON struct {
	Dataset  string `json:"dataset"`
	Query    string `json:"query"`
	Streams  int    `json:"streams"`
	Segments int    `json:"segments"`
	// WallSeconds is the mean end-to-end wall per stream; TTFFSeconds the
	// mean time until the first bytes were flushed (the honest
	// time-to-first-frame); MaxGapSeconds the worst inter-segment
	// delivery gap a playing client would observe.
	WallSeconds    float64 `json:"wall_seconds"`
	TTFFSeconds    float64 `json:"ttff_seconds"`
	TTFFMaxSeconds float64 `json:"ttff_max_seconds"`
	MaxGapSeconds  float64 `json:"max_gap_seconds"`
	// ByteIdentical confirms the streamed output matched the buffered
	// reference byte for byte.
	ByteIdentical bool `json:"byte_identical"`
}

type compareJSON struct {
	Dataset      string  `json:"dataset"`
	Query        string  `json:"query"`
	UnoptSeconds float64 `json:"unopt_seconds"`
	OptSeconds   float64 `json:"opt_seconds"`
	// OptFirstOutputSeconds is time-to-first-frame for the optimized run,
	// tracked (and delta-flagged) alongside total wall time.
	OptFirstOutputSeconds float64 `json:"opt_first_output_seconds"`
	Speedup               float64 `json:"speedup"`
}

type dataJoinJSON struct {
	Dataset         string  `json:"dataset"`
	Query           string  `json:"query"`
	BaselineSeconds float64 `json:"baseline_seconds"`
	V2VSeconds      float64 `json:"v2v_seconds"`
	Speedup         float64 `json:"speedup"`
}

type cacheJSON struct {
	Dataset         string  `json:"dataset"`
	Query           string  `json:"query"`
	OffSeconds      float64 `json:"off_seconds"`
	ColdSeconds     float64 `json:"cold_seconds"`
	WarmSeconds     float64 `json:"warm_seconds"`
	OffDecodes      int64   `json:"off_decodes"`
	ColdDecodes     int64   `json:"cold_decodes"`
	WarmDecodes     int64   `json:"warm_decodes"`
	DecodeReduction float64 `json:"decode_reduction"`
	ColdHits        int64   `json:"cold_hits"`
	ColdMisses      int64   `json:"cold_misses"`
	WarmHits        int64   `json:"warm_hits"`
	WarmMisses      int64   `json:"warm_misses"`
	// Result-cache stack (GOP + result caches under one arbitrated budget).
	ResultColdSeconds float64 `json:"result_cold_seconds"`
	ResultWarmSeconds float64 `json:"result_warm_seconds"`
	ResultColdDecodes int64   `json:"result_cold_decodes"`
	ResultColdEncodes int64   `json:"result_cold_encodes"`
	ResultWarmDecodes int64   `json:"result_warm_decodes"`
	ResultWarmEncodes int64   `json:"result_warm_encodes"`
	ResultColdHits    int64   `json:"result_cold_hits"`
	ResultColdMisses  int64   `json:"result_cold_misses"`
	ResultWarmHits    int64   `json:"result_warm_hits"`
	ResultWarmMisses  int64   `json:"result_warm_misses"`
	// ResultWarmFirstOutputSeconds is the warm repeat's time to first
	// output — the interactivity win the result cache buys.
	ResultWarmFirstOutputSeconds float64 `json:"result_warm_first_output_seconds"`
}

type overloadJSON struct {
	Dataset    string  `json:"dataset"`
	Load       float64 `json:"load"`
	Offered    int     `json:"offered"`
	Completed  int     `json:"completed"`
	Shed       int     `json:"shed"`
	Failed     int     `json:"failed"`
	ShedRate   float64 `json:"shed_rate"`
	GoodputQPS float64 `json:"goodput_qps"`
	P99Seconds float64 `json:"p99_seconds"`
}

type ablationJSON struct {
	Dataset     string  `json:"dataset"`
	Query       string  `json:"query"`
	Config      string  `json:"config"`
	WallSeconds float64 `json:"wall_seconds"`
	Encodes     int64   `json:"encodes"`
	Decodes     int64   `json:"decodes"`
	Copies      int64   `json:"copies"`
}

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 3, 4, 5, ablate, cache, overload, streaming, pixels, or all")
		scale     = flag.String("scale", "quick", "dataset scale: quick or full (paper-shaped durations)")
		repeats   = flag.Int("repeats", 3, "measured runs per configuration (after one warm-up)")
		parallel  = flag.Int("parallel", 0, "shard parallelism (0 = GOMAXPROCS)")
		dir       = flag.String("data", benchkit.DefaultDir(), "dataset cache directory")
		stats     = flag.Bool("stats", false, "with -fig 5, print data-rewrite statistics")
		cacheMB   = flag.Int("gop-cache-mb", -1, "decoded-GOP cache budget in MiB for the standard figures (negative = off, 0 = auto-size); -fig cache manages its own caches")
		resMB     = flag.Int("result-cache-mb", -1, "encoded-result cache budget in MiB for the standard figures (negative = off, 0 = 256 MiB default); -fig cache manages its own caches")
		jsonOut   = flag.String("json", "", "write per-query measurements as JSON to this file")
		deltaIn   = flag.String("delta", "", "prior -json report to diff the current measurements against (regression check)")
		deltaOut  = flag.String("delta-out", "", "with -delta, also write the diff as a markdown table to this file (for CI job summaries)")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event profile of all runs to this file")
		chaos     = flag.Bool("chaos", false, "run the fault-injection suite instead of the figures: every query under seeded read faults, strict and concealment modes")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for the -chaos fault streams and the -fig overload bursts (equal seeds replay equal arrivals)")
		flightOut = flag.String("flight-out", "", "with -chaos, write the errored attempts' flight records as JSON to this file (the /debug/requests?errored=1 shape)")
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

	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("v2vbench")
	}
	cfg := benchkit.Config{
		Scale:       sc,
		OutDir:      outDir,
		Parallelism: *parallel,
		Repeats:     *repeats,
		Trace:       tr,
	}
	if *cacheMB >= 0 {
		cfg.GOPCache = media.NewGOPCache(int64(*cacheMB) << 20)
	}
	if *resMB >= 0 {
		cfg.ResultCache = media.NewResultCache(int64(*resMB) << 20)
	}

	if *chaos {
		fmt.Fprintln(os.Stderr, "provisioning KABR-sim ...")
		kabr, err := benchkit.ProvisionKABR(*dir, sc)
		if err != nil {
			fatal(err)
		}
		if *flightOut != "" {
			cfg.Flight = obs.NewFlightRecorder(0)
		}
		overload, overloadErr := benchkit.ChaosOverloadRun(kabr, cfg, *chaosSeed)
		rows, runErr := benchkit.ChaosRun(kabr, cfg, *chaosSeed)
		// Dump the flight records before deciding the exit: a failing chaos
		// run is exactly when the dump matters (CI uploads it on failure).
		if *flightOut != "" {
			if werr := writeFlightDump(*flightOut, cfg.Flight); werr != nil {
				fatal(werr)
			}
			fmt.Fprintf(os.Stderr, "wrote errored flight records to %s\n", *flightOut)
		}
		if runErr != nil {
			fatal(runErr)
		}
		fmt.Println(benchkit.FormatChaos(
			fmt.Sprintf("Chaos — KABR-sim queries under seeded read faults (seed %d)", *chaosSeed), rows))
		if overloadErr != nil {
			fatal(overloadErr)
		}
		fmt.Println(benchkit.FormatChaosOverload(
			fmt.Sprintf("Chaos — KABR-sim under a 16x burst with an injected memory-pressure episode (seed %d)", *chaosSeed), overload))
		return
	}

	need3 := *fig == "3" || *fig == "all"
	need4 := *fig == "4" || *fig == "all"
	need5 := *fig == "5" || *fig == "all"
	needAblate := *fig == "ablate" || *fig == "all"
	needCache := *fig == "cache" || *fig == "all"
	needOverload := *fig == "overload" || *fig == "all"
	needStreaming := *fig == "streaming" || *fig == "all"
	needPixels := *fig == "pixels" || *fig == "all"
	if !need3 && !need4 && !need5 && !needAblate && !needCache && !needOverload && !needStreaming && !needPixels {
		fmt.Fprintf(os.Stderr, "v2vbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	var tos, kabr *benchkit.Dataset
	if need3 || need5 || needCache {
		fmt.Fprintln(os.Stderr, "provisioning ToS-sim ...")
		tos, err = benchkit.ProvisionToS(*dir, sc)
		if err != nil {
			fatal(err)
		}
	}
	if need4 || need5 || needAblate || needOverload || needStreaming {
		fmt.Fprintln(os.Stderr, "provisioning KABR-sim ...")
		kabr, err = benchkit.ProvisionKABR(*dir, sc)
		if err != nil {
			fatal(err)
		}
	}

	rep := report{Scale: *scale, Repeats: *repeats, Parallelism: *parallel}

	if need3 {
		rows, err := benchkit.CompareRun(tos, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(benchkit.FormatCompare("Fig. 3 — ToS-sim: V2V synthesis, unoptimized vs optimized", rows))
		rep.addCompare(tos.Name, rows)
	}
	if need4 {
		rows, err := benchkit.CompareRun(kabr, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(benchkit.FormatCompare("Fig. 4 — KABR-sim: V2V synthesis, unoptimized vs optimized", rows))
		rep.addCompare(kabr.Name, rows)
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
		rep.addDataJoin(rows)
		if *stats {
			printRewriteStats(tos, sc)
			printRewriteStats(kabr, sc)
		}
	}
	if needCache {
		rows, err := benchkit.CacheRun(tos, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(benchkit.FormatCache("Caches — ToS-sim: off / GOP cache cold+warm / GOP+result stack cold+warm", rows))
		rep.addCache(tos.Name, rows)
	}
	if needOverload {
		rows, err := benchkit.OverloadRun(kabr, cfg, *chaosSeed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(benchkit.FormatOverload("Overload — KABR-sim Q4 bursts at 1x/4x/16x the measured service rate", rows))
		rep.addOverload(kabr.Name, rows)
	}
	if needStreaming {
		rows, err := benchkit.StreamingRun(kabr, "Q7", cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(benchkit.FormatStreaming("Streaming — KABR-sim Q7 (4-segment splice): presentation-order delivery at 1/4/16 concurrent streams", rows))
		rep.addStreaming(kabr.Name, rows)
	}
	if needPixels {
		rows, err := benchkit.PixelsRun(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(benchkit.FormatPixels("Pixels — per-stage pipeline throughput: point filters, fused vs unfused 3-op chain, codec encode/decode", rows))
		rep.addPixels(rows)
	}
	if needAblate {
		rows, err := benchkit.AblationRun(kabr, "Q7", cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(benchkit.FormatAblation("Ablation — optimizer passes on KABR-sim Q7 (4-segment splice)", rows))
		rep.addAblation(kabr.Name, "Q7", rows)
	}

	if *jsonOut != "" {
		if err := writeReport(*jsonOut, rep); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote measurements to %s\n", *jsonOut)
	}
	if *deltaIn != "" {
		if *jsonOut == "" {
			fatal(fmt.Errorf("-delta requires -json (the current measurements to diff)"))
		}
		if err := reportDelta(*deltaIn, *jsonOut, *deltaOut); err != nil {
			fatal(err)
		}
	}
	if tr != nil {
		if err := tr.WriteJSONFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote trace (%d spans) to %s\n", tr.SpanCount(), *traceOut)
	}
}

func (r *report) addCompare(dataset string, rows []benchkit.Row) {
	for _, row := range rows {
		r.Compare = append(r.Compare, compareJSON{
			Dataset:               dataset,
			Query:                 row.Query,
			UnoptSeconds:          row.Unopt.Seconds(),
			OptSeconds:            row.Opt.Seconds(),
			OptFirstOutputSeconds: row.OptFirstOutput.Seconds(),
			Speedup:               row.Speedup,
		})
	}
}

func (r *report) addDataJoin(rows []benchkit.DataJoinRow) {
	for _, row := range rows {
		r.DataJoin = append(r.DataJoin, dataJoinJSON{
			Dataset:         row.Dataset,
			Query:           row.Query,
			BaselineSeconds: row.Baseline.Seconds(),
			V2VSeconds:      row.V2V.Seconds(),
			Speedup:         row.Speedup,
		})
	}
}

func (r *report) addCache(dataset string, rows []benchkit.CacheRow) {
	for _, row := range rows {
		r.Cache = append(r.Cache, cacheJSON{
			Dataset:         dataset,
			Query:           row.Query,
			OffSeconds:      row.Off.Seconds(),
			ColdSeconds:     row.Cold.Seconds(),
			WarmSeconds:     row.Warm.Seconds(),
			OffDecodes:      row.OffDecodes,
			ColdDecodes:     row.ColdDecodes,
			WarmDecodes:     row.WarmDecodes,
			DecodeReduction: row.DecodeReduction,
			ColdHits:        row.ColdHits,
			ColdMisses:      row.ColdMisses,
			WarmHits:        row.WarmHits,
			WarmMisses:      row.WarmMisses,

			ResultColdSeconds: row.ResultCold.Seconds(),
			ResultWarmSeconds: row.ResultWarm.Seconds(),
			ResultColdDecodes: row.ResultColdDecodes,
			ResultColdEncodes: row.ResultColdEncodes,
			ResultWarmDecodes: row.ResultWarmDecodes,
			ResultWarmEncodes: row.ResultWarmEncodes,
			ResultColdHits:    row.ResultColdHits,
			ResultColdMisses:  row.ResultColdMisses,
			ResultWarmHits:    row.ResultWarmHits,
			ResultWarmMisses:  row.ResultWarmMisses,

			ResultWarmFirstOutputSeconds: row.ResultWarmFirstOutput.Seconds(),
		})
	}
}

func (r *report) addOverload(dataset string, rows []benchkit.OverloadRow) {
	for _, row := range rows {
		r.Overload = append(r.Overload, overloadJSON{
			Dataset:    dataset,
			Load:       row.Load,
			Offered:    row.Offered,
			Completed:  row.Completed,
			Shed:       row.Shed,
			Failed:     row.Failed,
			ShedRate:   row.ShedRate,
			GoodputQPS: row.GoodputQPS,
			P99Seconds: row.P99.Seconds(),
		})
	}
}

func (r *report) addStreaming(dataset string, rows []benchkit.StreamingRow) {
	for _, row := range rows {
		r.Streaming = append(r.Streaming, streamingJSON{
			Dataset:        dataset,
			Query:          row.Query,
			Streams:        row.Streams,
			Segments:       row.Segments,
			WallSeconds:    row.Wall.Seconds(),
			TTFFSeconds:    row.TTFF.Seconds(),
			TTFFMaxSeconds: row.TTFFMax.Seconds(),
			MaxGapSeconds:  row.MaxSegGap.Seconds(),
			ByteIdentical:  row.ByteIdentical,
		})
	}
}

func (r *report) addPixels(rows []benchkit.PixelRow) {
	for _, row := range rows {
		r.Pixels = append(r.Pixels, pixelsJSON{
			Stage:           row.Stage,
			Frames:          row.Frames,
			MBPerSecond:     row.MBPerSecond,
			SecondsPerMB:    row.SecondsPerMB,
			SecondsPerFrame: row.SecondsPerFrame,
			AllocsPerFrame:  row.AllocsPerFrame,
			Speedup:         row.Speedup,
			Identical:       row.Identical,
		})
	}
}

func (r *report) addAblation(dataset, query string, rows []benchkit.AblationRow) {
	for _, row := range rows {
		r.Ablation = append(r.Ablation, ablationJSON{
			Dataset:     dataset,
			Query:       query,
			Config:      row.Config,
			WallSeconds: row.Wall.Seconds(),
			Encodes:     row.Encodes,
			Decodes:     row.Decodes,
			Copies:      row.Copies,
		})
	}
}

// reportDelta diffs the just-written report against a prior one, printing
// a text table and optionally writing a markdown table for CI summaries.
// A missing prior report is not an error (first run of a new generation).
func reportDelta(priorPath, curPath, mdPath string) error {
	prior, err := benchkit.LoadReport(priorPath)
	if err != nil {
		if os.IsNotExist(err) || errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "v2vbench: no prior report at %s, skipping delta\n", priorPath)
			return nil
		}
		return err
	}
	cur, err := benchkit.LoadReport(curPath)
	if err != nil {
		return err
	}
	rows := benchkit.Delta(prior, cur)
	title := fmt.Sprintf("Benchmark delta — %s vs %s", priorPath, curPath)
	fmt.Println(benchkit.FormatDelta(title, rows))
	if mdPath != "" {
		if err := os.WriteFile(mdPath, []byte(benchkit.FormatDeltaMarkdown(title, rows)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote delta markdown to %s\n", mdPath)
	}
	return nil
}

// writeFlightDump writes the errored chaos attempts in the same JSON shape
// v2vserve serves at /debug/requests?errored=1, so one set of tooling reads
// both.
func writeFlightDump(path string, fr *obs.FlightRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	recs := fr.Snapshot(obs.Filter{Errored: true})
	if recs == nil {
		recs = []obs.RequestRecord{}
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(struct {
		SlowThresholdNS int64               `json:"slow_threshold_ns"`
		Requests        []obs.RequestRecord `json:"requests"`
	}{int64(fr.SlowThreshold()), recs})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeReport(path string, rep report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
