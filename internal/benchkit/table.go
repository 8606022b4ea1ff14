package benchkit

import (
	"fmt"
	"strings"
	"time"
)

// FormatCompare renders Fig. 3/4-style rows as an aligned text table with
// the average speedup footer the paper quotes.
func FormatCompare(title string, rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-6s %12s %12s %9s\n", "Query", "Unopt", "Optimized", "Speedup")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6s %12s %12s %8.2fx\n", r.Query, fmtDur(r.Unopt), fmtDur(r.Opt), r.Speedup)
		sum += r.Speedup
	}
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "%-6s %12s %12s %8.2fx (average)\n", "", "", "", sum/float64(len(rows)))
	}
	return sb.String()
}

// FormatDataJoin renders Fig. 5-style rows.
func FormatDataJoin(title string, rows []DataJoinRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %-6s %12s %12s %9s\n", "Dataset", "Query", "Py+OpenCV", "V2V", "Speedup")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-6s %12s %12s %8.2fx\n",
			r.Dataset, r.Query, fmtDur(r.Baseline), fmtDur(r.V2V), r.Speedup)
		sum += r.Speedup
	}
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "%-10s %-6s %12s %12s %8.2fx (average)\n", "", "", "", "", sum/float64(len(rows)))
	}
	return sb.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", seconds(d))
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d/time.Microsecond)
	}
}
