package exec

// Tests for the run's sources: Check opens and indexes each source once,
// planning and optimizing open none, and a run opens each at most once
// more, on first use, and shares that reader among its shard workers and
// copies.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"v2v/internal/check"
	"v2v/internal/container"
	"v2v/internal/dataset"
	"v2v/internal/media"
	"v2v/internal/opt"
	"v2v/internal/plan"
	"v2v/internal/rational"
)

// openCounter counts container opens per path through the file wrapper
// until the test ends.
type openCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func countOpens(t *testing.T) *openCounter {
	c := &openCounter{n: map[string]int{}}
	container.SetFileWrapper(func(path string, f container.File) container.File {
		c.mu.Lock()
		c.n[path]++
		c.mu.Unlock()
		return f
	})
	t.Cleanup(func() { container.SetFileWrapper(nil) })
	return c
}

// take returns the counts so far and starts over.
func (c *openCounter) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = map[string]int{}
	return n
}

// onePerSource reports whether opens holds exactly one open of each of
// p's sources and nothing else.
func onePerSource(p *plan.Plan, opens map[string]int) bool {
	if len(opens) != len(p.Checked.Sources) {
		return false
	}
	for _, src := range p.Checked.Sources {
		if opens[src.Path] != 1 {
			return false
		}
	}
	return true
}

// gridSpec is a 2x2 grid of four one-second-GOP videos, long enough to
// cut into several shards.
func gridSpec() string {
	return fmt.Sprintf(`
		timedomain range(0, 4, 1/24);
		videos { a: %q; b: %q; c: %q; d: %q; }
		render(t) = grid(a[t], b[t], c[t], d[t]);`, fxVid, fxMore[0], fxMore[1], fxMore[2])
}

func TestEachSourceOpenedOncePerStage(t *testing.T) {
	specs := map[string]string{"grid": gridSpec(), "splice": kabrSpliceSpec(), "sharded clip": tosClipSpec()}
	for name, spec := range specs {
		for _, par := range []int{1, 2, 8} {
			opens := countOpens(t)
			p := buildPlanFull(t, spec, par)
			if got := opens.take(); !onePerSource(p, got) {
				t.Errorf("%s at parallelism %d: front end opened %v, want each source once", name, par, got)
			}
			// Planning and optimizing read check's index, not the file.
			again, err := plan.Build(p.Checked)
			if err != nil {
				t.Fatal(err)
			}
			o := opt.Default()
			o.Parallelism = par
			if _, err := opt.Optimize(again, o); err != nil {
				t.Fatal(err)
			}
			if got := opens.take(); len(got) != 0 {
				t.Errorf("%s at parallelism %d: plan and optimize opened %v", name, par, got)
			}
			cut := false
			for _, s := range p.Segments {
				cut = cut || len(s.Cuts) > 0
			}
			if name != "splice" && par > 1 && !cut {
				t.Errorf("%s at parallelism %d: no segment cut into shards; the fixture no longer shares a source among workers", name, par)
			}
			for run := 0; run < 2; run++ {
				runStream(t, p, Options{Parallelism: par})
				if got := opens.take(); !onePerSource(p, got) {
					t.Errorf("%s at parallelism %d, run %d: opened %v, want each source once", name, par, run, got)
				}
			}
		}
	}
}

// TestSourceRewrittenAfterCheckFailsRun: a source rewritten between check
// and execution fails the run with ErrSourceChanged naming the video, and
// leaves nothing at the output path.
func TestSourceRewrittenAfterCheckFailsRun(t *testing.T) {
	dir := t.TempDir()
	vid := filepath.Join(dir, "mut.vmf")
	prof := dataset.TinyProfile()
	if _, err := dataset.Generate(vid, "", prof, rational.FromInt(4)); err != nil {
		t.Fatal(err)
	}
	p, err := buildPlanFor(t, vid, `render(t) = grade(v[t], 5, 1.0, 1.0);`, false)
	if err != nil {
		t.Fatal(err)
	}
	prof.Seed = 1234
	if _, err := dataset.Generate(vid, "", prof, rational.FromInt(4)); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.vmf")
	_, err = Execute(context.Background(), p, out, Options{Parallelism: 2})
	if !errors.Is(err, check.ErrSourceChanged) || !strings.Contains(err.Error(), `"v"`) {
		t.Errorf("err = %v, want ErrSourceChanged naming video \"v\"", err)
	}
	for _, q := range []string{out, out + ".tmp"} {
		if _, err := os.Stat(q); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("failed run left %s behind", q)
		}
	}
}

// TestResultCachedRunOpensNoSource: a run whose every render segment is a
// result-cache hit reads no packet, so it opens no source file.
func TestResultCachedRunOpensNoSource(t *testing.T) {
	cache := media.NewCache(-1, 0, 1)
	for _, par := range []int{1, 2} {
		p := buildPlanFull(t, gridSpec(), par)
		opens := countOpens(t)
		_, cold := runStream(t, p, Options{Parallelism: par, Cache: cache})
		if got := opens.take(); !onePerSource(p, got) {
			t.Errorf("parallelism %d, cold run: opened %v, want each source once", par, got)
		}
		_, warm := runStream(t, p, Options{Parallelism: par, Cache: cache})
		if got := opens.take(); len(got) != 0 {
			t.Errorf("parallelism %d, warm run: opened %v, want nothing", par, got)
		}
		if cold.ResultCacheMisses == 0 || warm.ResultCacheMisses != 0 || warm.ResultCacheHits == 0 {
			t.Errorf("parallelism %d: cold misses=%d, warm hits=%d misses=%d; want a fully cached warm run",
				par, cold.ResultCacheMisses, warm.ResultCacheHits, warm.ResultCacheMisses)
		}
	}
}
