package main

import (
	"bytes"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// The suppression mechanism, shared by both checks: a comment of the form
//
//	//v2v:nolint(check1,check2) written justification
//
// silences those checks' findings on the directive's line — or, when the
// directive stands alone on its line, on the next line. The reason is
// mandatory: a directive without one, or without a check list, silences
// nothing and is itself a finding (check "nolint", which no directive
// silences). A name that is no check — misspelt, or a check since
// retired — silences nothing either, so the finding it aimed at stands.

var nolintRe = regexp.MustCompile(`^//\s*v2v:nolint\b(\(([^)]*)\))?(.*)$`)

// supKey is one silenced check on one line.
type supKey struct {
	file  string
	line  int
	check string
}

type suppressions map[supKey]bool

// scanNolint records f's directives in sup and returns a finding for each
// malformed one. src is f's source: it tells a directive alone on its
// line from one trailing code.
func scanNolint(fset *token.FileSet, f *ast.File, src []byte, sup suppressions) []finding {
	var bad []finding
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := nolintRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			switch {
			case strings.TrimSpace(m[2]) == "":
				bad = append(bad, finding{pos, "nolint", "v2v:nolint must name the checks it silences: //v2v:nolint(check) reason"})
				continue
			case strings.TrimSpace(m[3]) == "":
				bad = append(bad, finding{pos, "nolint", "v2v:nolint requires a written reason after the check list"})
				continue
			}
			line := pos.Line
			if len(bytes.TrimSpace(src[pos.Offset-pos.Column+1:pos.Offset])) == 0 {
				line++ // a standalone directive covers the next line
			}
			for _, name := range strings.Split(m[2], ",") {
				sup[supKey{pos.Filename, line, strings.TrimSpace(name)}] = true
			}
		}
	}
	return bad
}
