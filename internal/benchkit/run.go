package benchkit

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"v2v/internal/baseline"
	"v2v/internal/core"
	"v2v/internal/vql"
)

// Config carries the measurement knobs shared by every benchmark runner.
// The figures run with the GOP and result caches off.
type Config struct {
	// Scale selects quick or paper-shaped dataset durations.
	Scale Scale
	// OutDir receives (and has removed) the synthesized output files.
	OutDir string
	// Parallelism caps shard fan-out (0 = GOMAXPROCS).
	Parallelism int
	// Repeats is the number of measured runs per configuration (after one
	// discarded warm-up); values < 1 mean 1.
	Repeats int
}

// Mode selects the engine configuration for one measurement.
type Mode string

const (
	// ModeUnopt runs the unoptimized V2V plan (Figs. 3 and 4 left bars).
	ModeUnopt Mode = "unopt"
	// ModeOpt runs the fully optimized V2V pipeline (right bars).
	ModeOpt Mode = "opt"
	// ModeBaseline runs the Python+OpenCV-equivalent engine (Fig. 5).
	ModeBaseline Mode = "baseline"
)

// Measurement is one timed run.
type Measurement struct {
	Wall time.Duration
	// OutFrames is the output frame count (sanity check between modes).
	OutFrames int64
}

// RunOnce synthesizes the query once in the given mode and returns the
// measurement. The output file is written under cfg.OutDir and removed
// afterwards.
func RunOnce(ds *Dataset, q Query, mode Mode, cfg Config) (Measurement, error) {
	src := q.BuildSpecSource(ds, cfg.Scale)
	spec, err := vql.Parse(src)
	if err != nil {
		return Measurement{}, fmt.Errorf("benchkit: %s/%s: %w", ds.Name, q.ID, err)
	}
	out := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-%s-%s.vmf", ds.Name, q.ID, mode))
	defer os.Remove(out)

	start := time.Now()
	if mode == ModeBaseline {
		bm, err := baseline.Run(spec, out, nil)
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{Wall: time.Since(start), OutFrames: bm.FramesRendered}, nil
	}
	o := core.Options{Parallelism: cfg.Parallelism}
	if mode == ModeUnopt {
		// The paper's unoptimized bars are the sequential
		// operator-at-a-time plan: one worker, no overlap of segments.
		o.Parallelism = 1
	} else {
		o.Optimize = true
		o.DataRewrite = true
	}
	res, err := core.Synthesize(spec, out, o)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Wall:      time.Since(start),
		OutFrames: res.Metrics.Output.PacketsCopied + res.Metrics.Output.FramesEncoded,
	}, nil
}

// Repeat runs RunOnce cfg.Repeats times (after one discarded warm-up,
// like the paper's methodology) and returns the measurement with the
// average wall time.
func Repeat(ds *Dataset, q Query, mode Mode, cfg Config) (Measurement, error) {
	n := cfg.Repeats
	if n < 1 {
		n = 1
	}
	if _, err := RunOnce(ds, q, mode, cfg); err != nil {
		return Measurement{}, err // warm-up
	}
	var acc Measurement
	for i := 0; i < n; i++ {
		m, err := RunOnce(ds, q, mode, cfg)
		if err != nil {
			return Measurement{}, err
		}
		acc.Wall += m.Wall
		acc.OutFrames = m.OutFrames
	}
	acc.Wall /= time.Duration(n)
	return acc, nil
}

// Row is one line of a Fig. 3/4 table.
type Row struct {
	Query   string
	Unopt   time.Duration
	Opt     time.Duration
	Speedup float64
}

// CompareRun produces the unopt-vs-opt rows for every query on ds — the
// data behind Fig. 3 (ToS) and Fig. 4 (KABR).
func CompareRun(ds *Dataset, cfg Config) ([]Row, error) {
	var rows []Row
	for _, q := range Queries() {
		u, err := Repeat(ds, q, ModeUnopt, cfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s unopt: %w", ds.Name, q.ID, err)
		}
		o, err := Repeat(ds, q, ModeOpt, cfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s opt: %w", ds.Name, q.ID, err)
		}
		if u.OutFrames != o.OutFrames {
			return nil, fmt.Errorf("benchkit: %s %s output frame mismatch: %d vs %d",
				ds.Name, q.ID, u.OutFrames, o.OutFrames)
		}
		rows = append(rows, Row{
			Query: q.ID, Unopt: u.Wall, Opt: o.Wall,
			Speedup: seconds(u.Wall) / seconds(o.Wall),
		})
	}
	return rows, nil
}

// DataJoinRow is one line of the Fig. 5 table.
type DataJoinRow struct {
	Dataset  string
	Query    string
	Baseline time.Duration
	V2V      time.Duration
	Speedup  float64
}

// DataJoinRun measures the data-joining queries (Q5, Q10) against the
// baseline engine on ds — the data behind Fig. 5.
func DataJoinRun(ds *Dataset, cfg Config) ([]DataJoinRow, error) {
	var rows []DataJoinRow
	for _, q := range Queries() {
		if !q.JoinsData {
			continue
		}
		b, err := Repeat(ds, q, ModeBaseline, cfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s baseline: %w", ds.Name, q.ID, err)
		}
		o, err := Repeat(ds, q, ModeOpt, cfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s v2v: %w", ds.Name, q.ID, err)
		}
		rows = append(rows, DataJoinRow{
			Dataset: ds.Name, Query: q.ID, Baseline: b.Wall, V2V: o.Wall,
			Speedup: seconds(b.Wall) / seconds(o.Wall),
		})
	}
	return rows, nil
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
