package main

// The hotpath check: compiler-enforced allocation budgets for the warm
// loop. A function whose doc comment carries the line
//
//	//v2v:hotpath
//
// promises zero heap allocations. The check reads the real escape
// analysis — the compiler's -gcflags=-m=2 output for the linted packages,
// which load collects — keeps the `escapes to heap` / `moved to heap`
// diagnostics, attributes each to the annotated function whose lines
// contain it, and reports every one not silenced by a
// //v2v:nolint(hotpath) on the offending line. A directive written any
// other way, or placed anywhere but a function's doc comment, guards
// nothing, so it is a finding too.

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

const hotpathDirective = "//v2v:hotpath"

// hotFunc is an annotated function and the lines its escapes fall on.
type hotFunc struct {
	name       string // receiver-qualified, e.g. "(*PointOp).applyRow"
	file       string
	start, end int
}

// hotpathFuncs returns f's annotated functions, and a finding for each
// directive that is malformed or not in a function declaration's doc
// comment.
func hotpathFuncs(fset *token.FileSet, f *ast.File) ([]hotFunc, []finding) {
	docOf := map[*ast.Comment]*ast.FuncDecl{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil && fd.Body != nil {
			for _, c := range fd.Doc.List {
				docOf[c] = fd
			}
		}
	}
	var hot []hotFunc
	var bad []finding
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, hotpathDirective) {
				continue
			}
			fd := docOf[c]
			switch {
			case strings.TrimRight(c.Text, " \t") != hotpathDirective:
				bad = append(bad, finding{fset.Position(c.Pos()), "hotpath", "malformed v2v:hotpath directive (write exactly //v2v:hotpath on its own line)"})
			case fd == nil:
				bad = append(bad, finding{fset.Position(c.Pos()), "hotpath", "v2v:hotpath must be part of a function declaration's doc comment; here it guards nothing"})
			default:
				name := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					name = "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + name
				}
				start := fset.Position(fd.Pos())
				hot = append(hot, hotFunc{name, start.Filename, start.Line, fset.Position(fd.Body.Rbrace).Line})
			}
		}
	}
	return hot, bad
}

// escapeDiagRe matches one compiler diagnostic line. -m=2 also emits
// indented `flow:`/`from` explanation lines under the same position
// prefix; escapes keeps only the headlines.
var escapeDiagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// escapes returns each heap escape in the compiler's -m=2 output diag
// (positions relative to dir, or absolute) that lies inside a function
// of hot.
func escapes(dir string, diag []byte, hot []hotFunc) []finding {
	var found []finding
	seen := map[string]bool{}
	for _, line := range strings.Split(string(diag), "\n") {
		m := escapeDiagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if strings.HasPrefix(msg, " ") || strings.HasPrefix(msg, "\t") {
			continue // -m=2 flow explanation line
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		pos := token.Position{Filename: relTo(dir, m[1]), Line: ln, Column: col}
		fn := owner(hot, pos)
		if fn == "" {
			continue // outside every annotated function: out of budget scope
		}
		msg = strings.TrimSuffix(msg, ":")
		if key := pos.String() + msg; !seen[key] {
			seen[key] = true // -m=2 repeats the headline with and without flow detail
			found = append(found, finding{pos, "hotpath", msg + " in hotpath function " + fn})
		}
	}
	return found
}

// owner returns the name of the annotated function whose lines span pos,
// or "".
func owner(hot []hotFunc, pos token.Position) string {
	for _, h := range hot {
		if h.file == pos.Filename && pos.Line >= h.start && pos.Line <= h.end {
			return h.name
		}
	}
	return ""
}
