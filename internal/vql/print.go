package vql

import (
	"fmt"
	"sort"
	"strings"
)

// Format renders a spec in the textual grammar accepted by Parse, so that
// Parse(Format(s)) reproduces s (the parse∘print round-trip property).
func Format(s *Spec) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "timedomain range(%s, %s, %s);\n",
		s.TimeDomain.Start, s.TimeDomain.End, s.TimeDomain.Step)
	writeBindings(&sb, "videos", s.Videos)
	writeBindings(&sb, "data", s.DataFiles)
	writeBindings(&sb, "sql", s.DataSQL)
	if s.Output != nil {
		fmt.Fprintf(&sb, "output { width: %d; height: %d; fps: %s;", s.Output.Width, s.Output.Height, s.Output.FPS)
		if s.Output.Quality != 0 {
			fmt.Fprintf(&sb, " quality: %d;", s.Output.Quality)
		}
		if s.Output.GOP != 0 {
			fmt.Fprintf(&sb, " gop: %d;", s.Output.GOP)
		}
		sb.WriteString(" }\n")
	}
	fmt.Fprintf(&sb, "render(t) = %s;\n", FormatExpr(s.Render))
	return sb.String()
}

func writeBindings(sb *strings.Builder, section string, m map[string]string) {
	if len(m) == 0 {
		return
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(sb, "%s {\n", section)
	for _, k := range names {
		fmt.Fprintf(sb, "  %s: %s;\n", k, quoteVQL(m[k]))
	}
	sb.WriteString("}\n")
}

// FormatExpr renders an expression in DSL syntax. It differs from
// Expr.String only in how matches are indented; both parse back to the
// same tree.
func FormatExpr(e Expr) string { return e.String() }
