package plan

import (
	"fmt"
	"path/filepath"
	"testing"

	"v2v/internal/check"
	"v2v/internal/dataset"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

// checkedWith builds a Checked over an explicit video binding set.
func checkedWith(t *testing.T, videos, body string) *check.Checked {
	t.Helper()
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { %s }
		data { bb: %q; }
		%s`, videos, fxAnn, body)
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := check.Check(s, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// segmentKey plans body over c and fingerprints its first segment, cut
// into shards at cuts.
func segmentKey(t *testing.T, c *check.Checked, conceal bool, cuts ...int) (string, bool) {
	t.Helper()
	p, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) == 0 {
		t.Fatal("no segments")
	}
	p.Segments[0].Cuts = cuts
	return NewFingerprinter(c, conceal).Segment(p.Segments[0])
}

// The key must witness content, not names: the same file bound under two
// different video names fingerprints identically, and two different files
// under the same name fingerprint differently.
func TestFingerprintContentNotNames(t *testing.T) {
	body := `render(t) = grade(v[t], 5, 1.0, 1.0);`
	a := checkedWith(t, fmt.Sprintf("v: %q;", fxVid), body)
	b := checkedWith(t, fmt.Sprintf("v: %q;", fxVid),
		`render(t) = grade(v[t], 5, 1.0, 1.0);`)
	renamed := checkedWith(t, fmt.Sprintf("cam: %q;", fxVid),
		`render(t) = grade(cam[t], 5, 1.0, 1.0);`)
	other := checkedWith(t, fmt.Sprintf("v: %q;", fxVid2), body)

	ka, ok := segmentKey(t, a, false)
	if !ok {
		t.Fatal("segment not cacheable")
	}
	if kb, ok := segmentKey(t, b, false); !ok || kb != ka {
		t.Errorf("identical spec keys differ: %s vs %s", ka, kb)
	}
	if kr, ok := segmentKey(t, renamed, false); !ok || kr != ka {
		t.Errorf("renamed binding of the same file changed the key: %s vs %s", ka, kr)
	}
	if ko, ok := segmentKey(t, other, false); !ok || ko == ka {
		t.Error("different source content produced the same key")
	}
}

// The cuts are where a sharded render's forced keyframes fall, so they are
// part of what the bytes are: the same segment cut elsewhere, or cut once
// more, is a different entry, and the same cuts are the same entry — a
// result filled at one Parallelism is served to another exactly when the
// optimizer cut both plans alike.
func TestFingerprintKeysCuts(t *testing.T) {
	base := checked(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`)
	seen := map[string]string{}
	for _, cuts := range [][]int{nil, {24}, {25}, {12, 24}, {12, 36}} {
		k, ok := segmentKey(t, base, false, cuts...)
		if !ok {
			t.Fatalf("segment cut at %v not cacheable", cuts)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("cuts %v and %s share a key", cuts, prev)
		}
		seen[k] = fmt.Sprint(cuts)
		if again, _ := segmentKey(t, base, false, cuts...); again != k {
			t.Errorf("cuts %v keyed twice gave different keys", cuts)
		}
	}
	// Cuts the executor would drop (Bounds) do not change the key.
	k24, _ := segmentKey(t, base, false, 24)
	if k, _ := segmentKey(t, base, false, 0, 24, 24, 1<<20); k != k24 {
		t.Error("cuts outside the segment or repeated changed the key")
	}
}

// Everything else that changes the output bytes must change the key:
// times, concealment mode, and the operator tree.
func TestFingerprintSensitivity(t *testing.T) {
	base := checked(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`)
	k0, ok := segmentKey(t, base, false)
	if !ok {
		t.Fatal("segment not cacheable")
	}
	keys := map[string]string{"base": k0}
	put := func(name, k string) {
		t.Helper()
		for prev, pk := range keys {
			if pk == k {
				t.Errorf("%s collides with %s", name, prev)
			}
		}
		keys[name] = k
	}

	if k, ok := segmentKey(t, base, true); !ok {
		t.Error("conceal segment not cacheable")
	} else {
		put("conceal", k)
	}
	if k, ok := segmentKey(t, checked(t, `render(t) = grade(v[t], 6, 1.0, 1.0);`), false); !ok {
		t.Error("param variant not cacheable")
	} else {
		put("param", k)
	}
	if k, ok := segmentKey(t, checked(t, `render(t) = grade(v[t + 1], 5, 1.0, 1.0);`), false); !ok {
		t.Error("offset variant not cacheable")
	} else {
		put("offset", k)
	}
}

// A plan reading a data array must key on the array's materialized
// entries: regenerating the annotation file changes the key.
func TestFingerprintDataArrayContent(t *testing.T) {
	body := `render(t) = boxes(v[t], bb[t]);`
	c1 := checked(t, body)
	k1, ok := segmentKey(t, c1, false)
	if !ok {
		t.Fatal("segment not cacheable")
	}

	// Regenerate the annotations with a different seed into a fresh file
	// and bind it under the same array name.
	dir := t.TempDir()
	vid := filepath.Join(dir, "c.vmf")
	ann := filepath.Join(dir, "c.boxes.json")
	p := dataset.TinyProfile()
	p.Seed = 77
	if _, err := dataset.Generate(vid, ann, p, rational.FromInt(4)); err != nil {
		t.Fatal(err)
	}
	src := fmt.Sprintf(`
		timedomain range(0, 2, 1/24);
		videos { v: %q; w: %q; }
		data { bb: %q; }
		%s`, fxVid, fxVid2, ann, body)
	s, err := vql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := check.Check(s, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k2, ok := segmentKey(t, c2, false)
	if !ok {
		t.Fatal("variant segment not cacheable")
	}
	if k1 == k2 {
		t.Error("different data array contents produced the same key")
	}
}

// Rewriting a source file in place must change its content identity and
// therefore every key over it — the stale-source guard at the plan layer.
func TestFingerprintRewrittenSourceChangesKey(t *testing.T) {
	dir := t.TempDir()
	vid := filepath.Join(dir, "mut.vmf")
	p := dataset.TinyProfile()
	if _, err := dataset.Generate(vid, "", p, rational.FromInt(4)); err != nil {
		t.Fatal(err)
	}
	body := `render(t) = grade(v[t], 5, 1.0, 1.0);`
	c1 := checkedWith(t, fmt.Sprintf("v: %q;", vid), body)
	k1, ok := segmentKey(t, c1, false)
	if !ok {
		t.Fatal("segment not cacheable")
	}

	p.Seed = 99
	if _, err := dataset.Generate(vid, "", p, rational.FromInt(4)); err != nil {
		t.Fatal(err)
	}
	c2 := checkedWith(t, fmt.Sprintf("v: %q;", vid), body)
	k2, ok := segmentKey(t, c2, false)
	if !ok {
		t.Fatal("rewritten segment not cacheable")
	}
	if k1 == k2 {
		t.Error("in-place rewrite kept the same key: stale results would be served")
	}
	if c1.Sources["v"].ContentID() == c2.Sources["v"].ContentID() {
		t.Error("content ID unchanged by in-place rewrite")
	}
}

// A copy segment has nothing to memoize; a source with no content identity
// is conservatively uncacheable.
func TestFingerprintUncacheableForms(t *testing.T) {
	c := checked(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`)
	p, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFingerprinter(c, false)
	s := *p.Segments[0]
	s.Kind = SegCopy
	if _, ok := f.Segment(&s); ok {
		t.Error("copy segment reported cacheable")
	}

	// Strip the source's content identity: the render segment must become
	// uncacheable rather than key on nothing.
	c2 := *c
	c2.Sources = map[string]check.Source{}
	for name, src := range c.Sources {
		src.Index = nil
		c2.Sources[name] = src
	}
	f2 := NewFingerprinter(&c2, false)
	if _, ok := f2.Segment(p.Segments[0]); ok {
		t.Error("segment without source content identity reported cacheable")
	}
}
