// Package check implements V2V's static analysis: type checking of render
// expressions, match-coverage validation, and dependency analysis — the
// paper's "spec is correct if each dependency is a subset of the ranges
// available in the source videos" property (§III-B).
//
// Check also resolves the execution format: with no explicit output format
// the output adopts the (common) source format, which is what makes stream
// copies legal; an explicit output format forces every frame through the
// render path.
package check

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"

	"v2v/internal/container"
	"v2v/internal/data"
	"v2v/internal/media"
	"v2v/internal/rational"
	"v2v/internal/sqlmini"
	"v2v/internal/vql"
)

// maxEnumeratedSamples bounds the per-sample validation loop; specs larger
// than this fail fast rather than stalling the planner.
const maxEnumeratedSamples = 2_000_000

// Options configures checking.
type Options struct {
	// DB provides tables for sql-declared data arrays. Required only when
	// the spec has a sql section.
	DB *sqlmini.DB
	// Cache, when non-nil, holds parsed data files across checks, keyed
	// by the SHA-256 of each file's bytes: a file another check read is
	// not parsed again, and one rewritten in place is parsed anew. Nil
	// parses every file on every check.
	Cache *media.Cache
}

// Source is one input video as the planner sees it: its path and the
// container index Check read from it — the stream description, every
// packet's record, and the content ID that the result and GOP caches key
// on, so a rewritten file never serves stale entries. Planning reads
// only this; a run reopens the file at most once (OpenSource) to read
// packets.
type Source struct {
	Path string
	*container.Index
}

// ErrSourceChanged reports a source file whose content is no longer what
// Check indexed: it was rewritten between check and execution.
var ErrSourceChanged = errors.New("source changed since check")

// Checked is a validated spec plus everything the planner needs: loaded
// stream metadata, materialized data arrays, per-video dependency sets, and
// the resolved output format.
type Checked struct {
	Spec    *vql.Spec
	Sources map[string]Source
	Arrays  data.Arrays
	// Deps maps each video name to the set of times the spec reads,
	// expressed as intervals of frame extents.
	Deps map[string]rational.RangeSet
	// Output is the resolved output stream format.
	Output container.StreamInfo
	// Passthrough is true when the output format is inherited from the
	// sources, enabling stream-copy and smart-cut plans.
	Passthrough bool
}

// Check validates the spec and returns the planner inputs.
func Check(spec *vql.Spec, opts Options) (*Checked, error) {
	if spec.Render == nil {
		return nil, fmt.Errorf("check: spec has no render expression")
	}
	if spec.TimeDomain.Count() == 0 {
		return nil, fmt.Errorf("check: time domain %v is empty", spec.TimeDomain)
	}
	if spec.TimeDomain.Count() > maxEnumeratedSamples {
		return nil, fmt.Errorf("check: time domain has %d samples, exceeding the %d limit",
			spec.TimeDomain.Count(), maxEnumeratedSamples)
	}

	c := &Checked{
		Spec:    spec,
		Sources: make(map[string]Source),
		Arrays:  make(data.Arrays),
		Deps:    make(map[string]rational.RangeSet),
	}

	// Load video stream metadata (headers and indexes only; no decoding),
	// refusing a codec no reader could decode.
	for name, path := range spec.Videos {
		r, err := container.Open(path)
		if err != nil {
			return nil, fmt.Errorf("check: video %q: %w", name, err)
		}
		r.Close()
		if _, err := media.CodecConfig(r.Info()); err != nil {
			return nil, fmt.Errorf("check: video %q: %w", name, err)
		}
		c.Sources[name] = Source{Path: path, Index: r.Index}
	}

	// Load data arrays: files first, then SQL materializations.
	for name, path := range spec.DataFiles {
		arr, err := loadFile(path, opts.Cache)
		if err != nil {
			return nil, fmt.Errorf("check: data array %q: %w", name, err)
		}
		c.Arrays[name] = arr
	}
	for name, query := range spec.DataSQL {
		if opts.DB == nil {
			return nil, fmt.Errorf("check: data array %q needs a SQL database, none provided", name)
		}
		// Bound the materialization by the time window the spec can
		// actually read (§IV-B: "materialized in portions by bounding the
		// time") when every index of this array is affine in t.
		arr, err := sqlmini.MaterializeArrayBounded(opts.DB, query, sqlWindow(spec, name))
		if err != nil {
			return nil, fmt.Errorf("check: data array %q: %w", name, err)
		}
		c.Arrays[name] = arr
	}

	// Type-check the render expression.
	tc := &typeChecker{checked: c}
	rt, err := tc.typeOf(spec.Render, true)
	if err != nil {
		return nil, err
	}
	if rt != vql.TypeFrame {
		return nil, fmt.Errorf("check: render must produce a Frame, got %v", rt)
	}

	// Coverage + dependency analysis by enumeration of the time domain.
	if err := c.analyzeDependencies(); err != nil {
		return nil, err
	}

	// Resolve the output format.
	if err := c.resolveOutput(); err != nil {
		return nil, err
	}
	return c, nil
}

// loadFile reads the data array of an annotation file, parsing it only
// when cache holds no array of the file's content.
func loadFile(path string, cache *media.Cache) (*data.Array, error) {
	if cache == nil {
		return data.LoadJSON(path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("data: %w", err)
	}
	sum := sha256.Sum256(raw)
	arr, _, err := cache.Data(context.TODO(), hex.EncodeToString(sum[:]), func() (*data.Array, error) {
		return data.ParseJSON(raw)
	})
	return arr, err
}

// OpenSource opens the named source's file, for one run to read through:
// a container.Reader is safe to share among the run's goroutines. A file
// whose content differs from what Check indexed fails with an error
// wrapping ErrSourceChanged that names the video. The caller closes the
// reader.
func (c *Checked) OpenSource(name string) (*container.Reader, error) {
	src, ok := c.Sources[name]
	if !ok {
		return nil, fmt.Errorf("check: unknown video %q", name)
	}
	r, err := container.Open(src.Path)
	if err == nil && r.ContentID() != src.ContentID() {
		r.Close()
		err = ErrSourceChanged
	}
	if err != nil {
		return nil, fmt.Errorf("check: video %q: %w", name, err)
	}
	return r, nil
}

// OpenSources opens every source (OpenSource); on an error it closes what
// it opened. The caller closes the readers.
func (c *Checked) OpenSources() (map[string]*container.Reader, error) {
	rs := make(map[string]*container.Reader, len(c.Sources))
	for name := range c.Sources {
		r, err := c.OpenSource(name)
		if err != nil {
			for _, r := range rs {
				r.Close()
			}
			return nil, err
		}
		rs[name] = r
	}
	return rs, nil
}

// arrayElemType returns the element type of a data array: the type of its
// non-null entries (mixed types are rejected; an all-null or empty array
// types as Null).
func arrayElemType(arr *data.Array) (vql.Type, error) {
	elem := vql.TypeNull
	for _, e := range arr.Entries() {
		t := e.V.Type
		if t == vql.TypeNull {
			continue
		}
		if elem == vql.TypeNull {
			elem = t
			continue
		}
		if t != elem {
			return vql.TypeInvalid, fmt.Errorf("mixed element types %v and %v", elem, t)
		}
	}
	return elem, nil
}

type typeChecker struct {
	checked *Checked
}

// typeOf computes the static type of e. topLevel permits match expressions
// (matches may only appear as the outermost render node, mirroring the
// paper's Render(t) = match t {...} form; the rewriter relies on this).
func (tc *typeChecker) typeOf(e vql.Expr, topLevel bool) (vql.Type, error) {
	switch n := e.(type) {
	case vql.TimeVar:
		return vql.TypeNum, nil
	case vql.NumLit:
		return vql.TypeNum, nil
	case vql.StrLit:
		return vql.TypeStr, nil
	case vql.BoolLit:
		return vql.TypeBool, nil
	case vql.NullLit:
		return vql.TypeNull, nil
	case vql.Neg:
		it, err := tc.typeOf(n.E, false)
		if err != nil {
			return vql.TypeInvalid, err
		}
		if it != vql.TypeNum {
			return vql.TypeInvalid, fmt.Errorf("check: cannot negate %v", it)
		}
		return vql.TypeNum, nil
	case vql.Not:
		if _, err := tc.typeOf(n.E, false); err != nil {
			return vql.TypeInvalid, err
		}
		return vql.TypeBool, nil
	case vql.BinOp:
		return tc.typeOfBinOp(n)
	case vql.VideoRef:
		if _, ok := tc.checked.Sources[n.Name]; !ok {
			return vql.TypeInvalid, fmt.Errorf("check: unknown video %q", n.Name)
		}
		if err := tc.checkIndexExpr(n.Index, n.Name); err != nil {
			return vql.TypeInvalid, err
		}
		return vql.TypeFrame, nil
	case vql.DataRef:
		arr, ok := tc.checked.Arrays[n.Name]
		if !ok {
			return vql.TypeInvalid, fmt.Errorf("check: unknown data array %q", n.Name)
		}
		if err := tc.checkIndexExpr(n.Index, n.Name); err != nil {
			return vql.TypeInvalid, err
		}
		elem, err := arrayElemType(arr)
		if err != nil {
			return vql.TypeInvalid, fmt.Errorf("check: data array %q: %w", n.Name, err)
		}
		return elem, nil
	case vql.Call:
		tr, ok := vql.Lookup(n.Name)
		if !ok {
			return vql.TypeInvalid, fmt.Errorf("check: unknown transform %q", n.Name)
		}
		if err := tr.CheckArity(len(n.Args)); err != nil {
			return vql.TypeInvalid, err
		}
		for i, a := range n.Args {
			at, err := tc.typeOf(a, false)
			if err != nil {
				return vql.TypeInvalid, err
			}
			want := tr.ParamType(i)
			if !typeAssignable(at, want) {
				return vql.TypeInvalid, fmt.Errorf("check: %s argument %d wants %v, got %v", n.Name, i+1, want, at)
			}
		}
		return tr.Result, nil
	case vql.Match:
		if !topLevel {
			return vql.TypeInvalid, fmt.Errorf("check: match is only allowed at the top of render")
		}
		if len(n.Arms) == 0 {
			return vql.TypeInvalid, fmt.Errorf("check: match has no arms")
		}
		for i, arm := range n.Arms {
			bt, err := tc.typeOf(arm.Body, false)
			if err != nil {
				return vql.TypeInvalid, err
			}
			if bt != vql.TypeFrame {
				return vql.TypeInvalid, fmt.Errorf("check: match arm %d must produce a Frame, got %v", i+1, bt)
			}
		}
		return vql.TypeFrame, nil
	default:
		return vql.TypeInvalid, fmt.Errorf("check: cannot type %T", e)
	}
}

// typeAssignable reports whether a value of type got satisfies a parameter
// of type want. Null is accepted where Bool, Boxes, or Str flow (missing
// data samples degrade gracefully, matching evaluation semantics).
func typeAssignable(got, want vql.Type) bool {
	if got == want {
		return true
	}
	if got == vql.TypeNull && (want == vql.TypeBool || want == vql.TypeBoxes || want == vql.TypeStr) {
		return true
	}
	return false
}

func (tc *typeChecker) typeOfBinOp(n vql.BinOp) (vql.Type, error) {
	lt, err := tc.typeOf(n.L, false)
	if err != nil {
		return vql.TypeInvalid, err
	}
	rt, err := tc.typeOf(n.R, false)
	if err != nil {
		return vql.TypeInvalid, err
	}
	switch n.Op {
	case vql.OpAdd, vql.OpSub, vql.OpMul, vql.OpDiv:
		if lt != vql.TypeNum || rt != vql.TypeNum {
			return vql.TypeInvalid, fmt.Errorf("check: arithmetic needs numbers, got %v and %v", lt, rt)
		}
		return vql.TypeNum, nil
	case vql.OpLT, vql.OpLE, vql.OpGT, vql.OpGE:
		okL := lt == vql.TypeNum || lt == vql.TypeNull
		okR := rt == vql.TypeNum || rt == vql.TypeNull
		if !okL || !okR {
			return vql.TypeInvalid, fmt.Errorf("check: ordering needs numbers, got %v and %v", lt, rt)
		}
		return vql.TypeBool, nil
	case vql.OpEQ, vql.OpNE:
		if lt == vql.TypeFrame || rt == vql.TypeFrame {
			return vql.TypeInvalid, fmt.Errorf("check: frames are not comparable")
		}
		return vql.TypeBool, nil
	default: // and / or
		return vql.TypeBool, nil
	}
}

// checkIndexExpr validates that an indexing expression depends only on t
// and constants: index expressions must be statically analyzable for
// dependency computation.
func (tc *typeChecker) checkIndexExpr(e vql.Expr, name string) error {
	var bad error
	vql.Walk(e, func(n vql.Expr) {
		switch n.(type) {
		case vql.VideoRef, vql.DataRef, vql.Call, vql.Match, vql.StrLit, vql.BoolLit, vql.NullLit:
			if bad == nil {
				bad = fmt.Errorf("check: index of %q must be built from t and numeric constants, found %s", name, n)
			}
		}
	})
	if bad != nil {
		return bad
	}
	t, err := tc.typeOf(e, false)
	if err != nil {
		return err
	}
	if t != vql.TypeNum {
		return fmt.Errorf("check: index of %q must be a time, got %v", name, t)
	}
	return nil
}
