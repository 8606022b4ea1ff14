// Command v2vlint is the repository's static check. One run makes two
// checks and exits non-zero if either finds anything:
//
//   - errwrap: errors are compared with errors.Is, never ==, and an error
//     formatted by fmt.Errorf is wrapped with %w (errwrap.go).
//   - hotpath: every function whose doc comment carries //v2v:hotpath is
//     free of heap escapes, by the compiler's own escape analysis, and
//     every such directive is well formed and in a function's doc comment
//     (hotpath.go).
//
// Usage:
//
//	v2vlint [-dir D] [packages...]
//
// Packages default to ./... and resolve in D as the go command resolves
// them. Findings print one per line as file:line:col: [check] message,
// with file relative to D. A //v2v:nolint(check) comment with a written
// reason silences one line (nolint.go). Exit codes: 0 clean, 1 findings,
// 2 usage, load or build error. See docs/STATIC_ANALYSIS.md.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is one positioned report of a check.
type finding struct {
	pos   token.Position
	check string
	msg   string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.pos.Filename, f.pos.Line, f.pos.Column, f.check, f.msg)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("v2vlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory the package patterns resolve in")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, hot, err := lint(*dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "v2vlint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	fmt.Fprintf(stderr, "v2vlint: %d finding(s); %d annotated hotpath function(s) checked for heap escapes\n", len(findings), hot)
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// lint runs both checks over the packages patterns name in dir and
// returns the unsuppressed findings in position order, with the number of
// //v2v:hotpath functions the escape check covered.
func lint(dir string, patterns []string) ([]finding, int, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, 0, err
	}
	pkgs, diag, err := load(dir, patterns)
	if err != nil {
		return nil, 0, err
	}
	var all []finding
	var hot []hotFunc
	sup := suppressions{}
	for _, p := range pkgs {
		for i, f := range p.files {
			all = append(all, scanNolint(p.fset, f, p.srcs[i], sup)...)
			h, bad := hotpathFuncs(p.fset, f)
			hot = append(hot, h...)
			all = append(all, bad...)
		}
		all = append(all, errwrap(p)...)
	}
	all = append(all, escapes(dir, diag, hot)...)
	var out []finding
	for _, f := range all {
		if f.check == "nolint" || !sup[supKey{f.pos.Filename, f.pos.Line, f.check}] {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.check < b.check
	})
	return out, len(hot), nil
}
