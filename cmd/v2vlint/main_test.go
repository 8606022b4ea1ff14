package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var findingRe = regexp.MustCompile(`^(.+:\d+):\d+: (\[\w+\]) (.*)$`)

// expect runs v2vlint on the fixture module dir and checks that it exits
// with code and prints exactly the findings want lists, one each, given
// as "file:line [check] message-substring". It returns stderr.
func expect(t *testing.T, dir string, code int, want ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if got := run([]string{"-dir", dir}, &out, &errb); got != code {
		t.Fatalf("exit = %d, want %d; stdout:\n%s\nstderr:\n%s", got, code, out.String(), errb.String())
	}
	matched := make([]bool, len(want))
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line == "" {
			continue
		}
		m := findingRe.FindStringSubmatch(line)
		ok := false
		for i, w := range want {
			at, rest, _ := strings.Cut(w, " ")
			check, substr, _ := strings.Cut(rest, " ")
			if !matched[i] && m != nil && m[1] == at && m[2] == check && strings.Contains(m[3], substr) {
				matched[i], ok = true, true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", line)
		}
	}
	for i, w := range want {
		if !matched[i] {
			t.Errorf("missing finding %q in:\n%s", w, out.String())
		}
	}
	return errb.String()
}

// TestFindingsExitNonzero: the live == and %v findings and the bare
// directive fail the run; the justified suppression stays quiet, and the
// bare one silences nothing.
func TestFindingsExitNonzero(t *testing.T) {
	expect(t, "testdata/fixture", 1,
		"fixture.go:12 [errwrap] error compared with ==",
		"fixture.go:23 [errwrap] error compared with ==",
		"fixture.go:23 [nolint] requires a written reason",
		"fixture.go:28 [errwrap] formatted with %v",
	)
}

// TestCleanExitsZero: a module with nothing to report and no
// //v2v:hotpath annotation is not an error.
func TestCleanExitsZero(t *testing.T) {
	expect(t, "testdata/clean", 0)
}

func TestErrWrap(t *testing.T) {
	expect(t, "testdata/errwrap", 1,
		"errwrap.go:29 [errwrap] use errors.Is",
		"errwrap.go:33 [errwrap] use !errors.Is",
		"errwrap.go:37 [errwrap] formatted with %v; use %w",
		"errwrap.go:41 [errwrap] formatted with %s; use %w",
		"errwrap.go:45 [errwrap] formatted with %v; use %w",
	)
}

// TestEscapesSeededFixtureFails: the seeded escape is attributed to its
// function; the clean function, the suppressed line and the unannotated
// function stay silent.
func TestEscapesSeededFixtureFails(t *testing.T) {
	stderr := expect(t, "testdata/escapes", 1,
		"escapes.go:22 [hotpath] moved to heap: v in hotpath function leaky",
		"escapes.go:22 [hotpath] v escapes to heap in hotpath function leaky",
	)
	if !strings.Contains(stderr, "3 annotated hotpath function(s)") {
		t.Errorf("stderr missing annotation count: %s", stderr)
	}
}

func TestHotPath(t *testing.T) {
	expect(t, "testdata/hotpathmalformed", 1,
		"hotpathmalformed.go:8 [hotpath] malformed v2v:hotpath directive",
	)
}

func TestHotPathMisplaced(t *testing.T) {
	expect(t, "testdata/hotpathmisplaced", 1,
		"hotpathmisplaced.go:5 [hotpath] must be part of a function declaration's doc comment",
		"hotpathmisplaced.go:9 [hotpath] must be part of a function declaration's doc comment",
	)
}

// TestNolintDirectives: trailing, standalone and stacked directives
// silence their line; reason-less and list-less ones silence nothing and
// are findings; a name that is no check silences nothing and is not.
func TestNolintDirectives(t *testing.T) {
	expect(t, "testdata/nolint", 1,
		"nolint.go:22 [errwrap] use errors.Is",
		"nolint.go:22 [nolint] requires a written reason",
		"nolint.go:26 [errwrap] use errors.Is",
		"nolint.go:26 [nolint] must name the checks",
		"nolint.go:30 [errwrap] use errors.Is",
		"nolint.go:35 [errwrap] use errors.Is",
	)
	// A directive naming an analyzer v2vlint no longer has is no finding.
	expect(t, "testdata/retired", 0)
}

// TestHotpathFuncs pins the ranges escapes are attributed to: names are
// receiver-qualified and a range spans the whole declaration.
func TestHotpathFuncs(t *testing.T) {
	const src = `package p

type ring struct{ n int }

// push is hot.
//
//v2v:hotpath
func (r *ring) push() {
	r.n++
}

//v2v:hotpath
func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}

func cold() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	hot, bad := hotpathFuncs(fset, f)
	want := []hotFunc{{"(*ring).push", "p.go", 8, 10}, {"sum", "p.go", 13, 18}}
	if len(bad) != 0 || len(hot) != len(want) {
		t.Fatalf("hot = %v, bad = %v; want %v", hot, bad, want)
	}
	for i := range want {
		if hot[i] != want[i] {
			t.Errorf("hot[%d] = %v, want %v", i, hot[i], want[i])
		}
	}
}

// TestLoaderModuleImports type-checks a real package of this module,
// whose imports resolve through the export data `go list -export`
// produced: module packages and the standard library alike.
func TestLoaderModuleImports(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, _, err := load(root, []string{"./internal/exec"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want v2v/internal/exec alone", len(pkgs))
	}
	used := map[string]bool{}
	for _, obj := range pkgs[0].info.Uses {
		if obj.Pkg() != nil {
			used[obj.Pkg().Path()] = true
		}
	}
	for _, path := range []string{"v2v/internal/plan", "v2v/internal/media", "context"} {
		if !used[path] {
			t.Errorf("no object of %s resolved", path)
		}
	}
	f := pkgs[0].files[0]
	if file := pkgs[0].fset.Position(f.Pos()).Filename; f.Name.Name != "exec" || !strings.HasPrefix(file, "internal/exec/") {
		t.Errorf("loaded %s of package %s; want package exec, named relative to the lint dir", file, f.Name.Name)
	}
}
