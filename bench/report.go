package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envBlock is the provenance a result carries, so two result files can be
// told apart and compared knowingly.
type envBlock struct {
	Commit     string         `json:"commit"`
	Dirty      bool           `json:"dirty"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	P          int            `json:"P"`
	C          int            `json:"C"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Smoke      bool           `json:"smoke"`
	Datasets   map[string]any `json:"datasets"`
}

func collectEnv(cfg config) envBlock {
	e := envBlock{
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		P: cfg.parallel, C: cfg.clients, Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		Datasets: map[string]any{
			"tos-sim":       map[string]any{"videos": 1, "seconds": tosSeconds, "size": "384x172", "fps": 24, "gop_seconds": 10, "boxes": "dense"},
			"kabr-sim":      map[string]any{"videos": kabrVideos, "seconds": kabrSeconds, "size": "384x216", "fps": 30, "gop_seconds": 1, "boxes": "sparse"},
			"short_seconds": shortSeconds,
			"long_seconds":  longSeconds,
		},
	}
	// A driver's checkout is not a git repository; the commit then stays
	// "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return e
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Schema int `json:"schema"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim     *string                    `json:"claim"`
	Env       envBlock                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printWorkload prints every metric of one workload by name, with its
// unit and the sample count behind it.
func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d ops in %d rounds over %.1f s (warm-up %.1f s, verify %.1f s, %d pixel checks, %d golden)\n",
		r.Name, r.Ops, r.Rounds, r.WindowS, r.WarmupS, r.VerifyS, r.PixelChecks, r.Golden)
	row := func(name string, m metricValue) {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for _, d := range endToEnd {
		row(d.Name, r.EndToEnd[d.Name])
	}
	row(failShare, r.EndToEnd[failShare])
	if r.PerLayer != nil {
		fmt.Fprintf(w, "  -- per layer, traced pass of %d ops\n", r.TracedOps)
		for _, d := range perLayer {
			row(d.Name, r.PerLayer[d.Name])
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// driverLine is the one JSON object a single-workload run prints as its
// last line of standard output.
func driverLine(r *workloadResult, trace bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	defs, from := endToEnd, r.EndToEnd
	if trace {
		defs, from = perLayer, r.PerLayer
	}
	for _, d := range defs {
		metrics[d.Name] = mv{from[d.Name].Value, d.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{len(r.Failures) == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	return string(raw)
}

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads:
// the bound of each end-to-end metric, for -agree.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// agree prints, per end-to-end metric and workload, the two results'
// values, their difference as a share of the first, and the bound; it
// reports whether every metric stayed within its bound in both directions
// (two runs of one program have no better or worse side).
func agree(w io.Writer, a, b *resultFile, bf *benchmarkFile) bool {
	ok := true
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-18s %-18s %12s %12s %8s %6s\n", "workload", "metric", "a", "b", "diff", "bound")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-18s missing from the second result\n", name)
			ok = false
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			diff := ratio(vb-va, va)
			verdict := ""
			if math.Abs(diff) > m.Bound {
				verdict, ok = "  OUT OF BOUND", false
			}
			fmt.Fprintf(w, "%-18s %-18s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n",
				name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
		if f := wa.EndToEnd[failShare].Value + wb.EndToEnd[failShare].Value; f > 0 {
			fmt.Fprintf(w, "%-18s %-18s has failures\n", name, failShare)
			ok = false
		}
	}
	return ok
}
