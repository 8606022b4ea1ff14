package benchkit

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"v2v/internal/core"
	"v2v/internal/opt"
	"v2v/internal/vql"
)

// AblationRow is one optimizer-pass configuration measurement.
type AblationRow struct {
	Config  string
	Wall    time.Duration
	Encodes int64
	Decodes int64
	Copies  int64
}

// AblationConfigs enumerates the pass configurations measured by the
// ablation table: each pass alone, everything, and nothing.
func AblationConfigs() []struct {
	Name   string
	On     bool
	Passes *opt.Options
} {
	return []struct {
		Name   string
		On     bool
		Passes *opt.Options
	}{
		{"none", false, nil},
		{"copy-only", true, &opt.Options{StreamCopy: true}},
		{"smartcut-only", true, &opt.Options{SmartCut: true}},
		{"merge-only", true, &opt.Options{MergeFilters: true, MergeSegments: true}},
		{"shard-only", true, &opt.Options{Shard: true}},
		{"all", true, nil},
	}
}

// AblationRun measures every pass configuration on one query. The data
// rewriter stays on for every configuration (it is a spec-level pass, not
// a plan pass).
func AblationRun(ds *Dataset, qid string, cfg Config) ([]AblationRow, error) {
	q, ok := QueryByID(qid)
	if !ok {
		return nil, fmt.Errorf("benchkit: unknown query %q", qid)
	}
	spec, err := vql.Parse(q.BuildSpecSource(ds, cfg.Scale))
	if err != nil {
		return nil, err
	}
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	var rows []AblationRow
	for _, ac := range AblationConfigs() {
		o := core.Options{
			Optimize:    ac.On,
			DataRewrite: true,
			OptPasses:   ac.Passes,
			Parallelism: cfg.Parallelism,
		}
		var total time.Duration
		var last *core.Result
		for i := 0; i <= repeats; i++ { // one warm-up + repeats
			out := filepath.Join(cfg.OutDir, fmt.Sprintf("ablate-%s.vmf", ac.Name))
			start := time.Now()
			res, err := core.Synthesize(spec, out, o)
			if err != nil {
				return nil, fmt.Errorf("benchkit: ablation %s: %w", ac.Name, err)
			}
			os.Remove(out)
			if i > 0 {
				total += time.Since(start)
			}
			last = res
		}
		rows = append(rows, AblationRow{
			Config:  ac.Name,
			Wall:    total / time.Duration(repeats),
			Encodes: last.Metrics.TotalEncodes(),
			Decodes: last.Metrics.TotalDecodes(),
			Copies:  last.Metrics.Output.PacketsCopied,
		})
	}
	return rows, nil
}

// FormatAblation renders ablation rows with normalized speedups against
// the "none" configuration.
func FormatAblation(title string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-14s %12s %9s %9s %9s %9s\n", "Config", "Wall", "Speedup", "Encodes", "Decodes", "Copies")
	var base float64
	for _, r := range rows {
		if r.Config == "none" {
			base = seconds(r.Wall)
		}
	}
	for _, r := range rows {
		sp := 0.0
		if s := seconds(r.Wall); s > 0 && base > 0 {
			sp = base / s
		}
		fmt.Fprintf(&sb, "%-14s %12s %8.2fx %9d %9d %9d\n",
			r.Config, fmtDur(r.Wall), sp, r.Encodes, r.Decodes, r.Copies)
	}
	return sb.String()
}
