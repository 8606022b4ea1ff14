package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// pkg is one package the patterns name, parsed and type-checked.
type pkg struct {
	fset  *token.FileSet
	files []*ast.File // non-test files, named relative to the lint dir
	srcs  [][]byte    // files[i]'s source
	info  *types.Info
}

// load resolves patterns in dir with one `go list -deps -export` and
// type-checks each named package from source against the export data the
// go command compiled for its imports. That go list compiles the named
// packages with -gcflags=-m=2, so it also returns the compiler's escape
// diagnostics for them — exactly what `go build -gcflags=-m=2` prints,
// replayed from the build cache when nothing changed — which the hotpath
// check reads.
func load(dir string, patterns []string) ([]*pkg, []byte, error) {
	// -e puts a package's load or compile error in its Error field, so
	// the diagnostics stream holds compiler output only.
	args := append([]string{"list", "-e", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error", "-gcflags=-m=2"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var diag bytes.Buffer
	cmd.Stderr = &diag
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %w\n%s", err, diag.Bytes())
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		DepOnly                 bool
		Error                   *struct{ Err string }
	}
	export := map[string]string{}
	var named []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var l listed
		if err := dec.Decode(&l); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %w", err)
		}
		if l.Error != nil {
			return nil, nil, fmt.Errorf("%s: %s", l.ImportPath, strings.TrimSpace(l.Error.Err))
		}
		export[l.ImportPath] = l.Export
		if !l.DepOnly {
			named = append(named, l)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})
	pkgs := make([]*pkg, 0, len(named))
	for _, l := range named {
		p := &pkg{fset: fset, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range l.GoFiles {
			path := filepath.Join(l.Dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, nil, err
			}
			f, err := parser.ParseFile(fset, relTo(dir, path), src, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			p.files = append(p.files, f)
			p.srcs = append(p.srcs, src)
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(l.ImportPath, fset, p.files, p.info); err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %w", l.ImportPath, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, diag.Bytes(), nil
}

// relTo names path relative to dir when it lies inside it; the go
// command prints compiler positions the same way.
func relTo(dir, path string) string {
	if !filepath.IsAbs(path) {
		return filepath.Clean(path)
	}
	if rel, err := filepath.Rel(dir, path); err == nil && filepath.IsLocal(rel) {
		return rel
	}
	return path
}
