package benchkit

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"v2v/internal/container"
	"v2v/internal/core"
	"v2v/internal/faults"
	"v2v/internal/obs"
	"v2v/internal/vql"
)

// ChaosRow reports one synthesis attempt under fault injection.
type ChaosRow struct {
	Query string
	// Mode is "strict" or "conceal".
	Mode string
	// OK means the synthesis completed and produced a readable VMF file.
	OK bool
	// Err is the failure message for runs that stopped (expected under
	// chaos — the invariant is *clean* failure, not success).
	Err string
	// Concealed counts frames replaced by the concealment path.
	Concealed int64
	// Faults is what the injector actually delivered during the run.
	Faults faults.Stats
	Wall   time.Duration
}

// ChaosRun executes every benchmark query in both strict and concealment
// mode while a seeded fault injector corrupts reads (bit flips, short
// reads, retryable transients, latency). It verifies the robustness
// invariants the executor promises:
//
//   - a failed run leaves nothing at the output path — no file, no temp;
//   - a completed run's output opens as a valid VMF file.
//
// Violations return an error; fault-induced failures do not. Equal seeds
// replay the same fault stream (modulo shard scheduling).
func ChaosRun(ds *Dataset, cfg Config, seed int64) ([]ChaosRow, error) {
	defer faults.Deactivate()
	var rows []ChaosRow
	for qi, q := range Queries() {
		src := q.BuildSpecSource(ds, cfg.Scale)
		spec, err := vql.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("benchkit: chaos %s: %w", q.ID, err)
		}
		for mi, mode := range []string{"strict", "conceal"} {
			out := filepath.Join(cfg.OutDir, fmt.Sprintf("chaos-%s-%s.vmf", q.ID, mode))
			inj := faults.New(faults.Config{
				// Distinct stream per (query, mode), reproducible per seed.
				Seed:        seed + int64(qi)*2 + int64(mi),
				BitFlip:     0.02,
				Truncate:    0.005,
				Transient:   0.01,
				Latency:     200 * time.Microsecond,
				LatencyProb: 0.01,
			})
			row := ChaosRow{Query: q.ID, Mode: mode}
			// The flight record (nil-safe when cfg.Flight is unset) captures
			// what each attempt was doing, for post-mortem dumps of failing
			// chaos jobs.
			freq := cfg.Flight.Start(obs.NewTraceID(),
				fmt.Sprintf("chaos %s/%s seed=%d: %s", q.ID, mode, seed, src))
			o := core.Options{
				Optimize: true, DataRewrite: true,
				Parallelism: cfg.Parallelism,
				Conceal:     mode == "conceal",
				Recorder:    freq.Recorder(),
			}
			start := time.Now()
			inj.Activate()
			res, err := core.Synthesize(spec, out, o)
			faults.Deactivate()
			row.Wall = time.Since(start)
			row.Faults = inj.Stats()
			if err != nil {
				freq.Finish("error", err)
				row.Err = err.Error()
				// Invariant: failure leaves no partial output behind.
				for _, p := range []string{out, out + ".tmp"} {
					if _, serr := os.Stat(p); !errors.Is(serr, os.ErrNotExist) {
						return nil, fmt.Errorf("benchkit: chaos %s/%s: failed run left %s behind", q.ID, mode, p)
					}
				}
			} else {
				freq.Finish("ok", nil)
				row.OK = true
				row.Concealed = res.Metrics.TotalConcealed()
				// Invariant: a completed run produced a readable container.
				r, oerr := container.Open(out)
				if oerr != nil {
					return nil, fmt.Errorf("benchkit: chaos %s/%s: completed run wrote unreadable output: %w", q.ID, mode, oerr)
				}
				r.Close()
				os.Remove(out)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatChaos renders chaos rows as a text table.
func FormatChaos(title string, rows []ChaosRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-6s %-8s %-9s %10s %7s %7s %7s %9s  %s\n",
		"query", "mode", "outcome", "concealed", "flips", "trunc", "trans", "wall", "error")
	for _, r := range rows {
		outcome := "ok"
		errMsg := ""
		if !r.OK {
			outcome = "failed"
			errMsg = r.Err
			if len(errMsg) > 60 {
				errMsg = errMsg[:57] + "..."
			}
		}
		fmt.Fprintf(&sb, "%-6s %-8s %-9s %10d %7d %7d %7d %9s  %s\n",
			r.Query, r.Mode, outcome, r.Concealed,
			r.Faults.BitFlips, r.Faults.Truncations, r.Faults.Transients,
			r.Wall.Round(time.Millisecond), errMsg)
	}
	return sb.String()
}
