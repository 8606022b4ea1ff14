package exec

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"v2v/internal/dataset"
	"v2v/internal/media"
	"v2v/internal/plan"
	"v2v/internal/rational"
)

// runStream executes p into an in-memory VMS stream and returns the bytes
// and metrics.
func runStream(t *testing.T, p *plan.Plan, o Options) (string, *Metrics) {
	t.Helper()
	var buf strings.Builder
	sink, err := media.NewStreamWriter(&nopWriter{&buf}, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExecuteTo(context.Background(), p, sink, o)
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), m
}

// A repeated query against a warm result cache must do zero work: no
// source decodes, no frame encodes, byte-identical output — the paper's
// repeated-request scenario (the same spec POSTed to v2vserve twice).
func TestResultCacheWarmRepeatZeroWork(t *testing.T) {
	body := `render(t) = grade(v[t], 5, 1.0, 1.0);`
	rc := media.NewCache(-1, 0, 1)
	opts := Options{Cache: rc}

	cold, mCold := runStream(t, buildPlan(t, body, false), opts)
	if mCold.ResultCacheMisses == 0 || mCold.ResultCacheHits != 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want misses only",
			mCold.ResultCacheHits, mCold.ResultCacheMisses)
	}
	if mCold.Source.FramesDecoded == 0 {
		t.Fatal("cold run decoded nothing — fixture broken")
	}

	// Fresh plan (as a new request would build), same cache.
	warm, mWarm := runStream(t, buildPlan(t, body, false), opts)
	if warm != cold {
		t.Error("warm output differs from cold output")
	}
	if mWarm.ResultCacheHits == 0 || mWarm.ResultCacheMisses != 0 {
		t.Errorf("warm run: hits=%d misses=%d, want hits only",
			mWarm.ResultCacheHits, mWarm.ResultCacheMisses)
	}
	if mWarm.Source.FramesDecoded != 0 {
		t.Errorf("warm run decoded %d source frames, want 0", mWarm.Source.FramesDecoded)
	}
	if enc := mWarm.TotalEncodes(); enc != 0 {
		t.Errorf("warm run encoded %d frames, want 0", enc)
	}
	if mWarm.Output.PacketsCopied == 0 {
		t.Error("warm run copied no packets — cache was not the delivery path")
	}
	if mWarm.ResultCache == nil || mWarm.ResultCache.Hits == 0 {
		t.Error("metrics snapshot missing result-cache stats")
	}

	// Per-segment actuals carry the hit for EXPLAIN ANALYZE.
	var hits int64
	for _, a := range mWarm.Segments {
		hits += a.ResultCacheHits
	}
	if hits == 0 {
		t.Error("segment actuals recorded no result-cache hits")
	}
}

// Sharded segments are cacheable too: the warm repeat of a multi-shard
// render must also hit and do zero decode/encode work.
func TestResultCacheWarmRepeatShardedSegment(t *testing.T) {
	body := `render(t) = grade(v[t], 5, 1.0, 1.0);`
	rc := media.NewCache(-1, 0, 1)
	opts := Options{Cache: rc, Parallelism: 2}

	build := func() *plan.Plan {
		p := buildPlan(t, body, false)
		setShards(p, 2)
		return p
	}
	cold, _ := runStream(t, build(), opts)
	warm, mWarm := runStream(t, build(), opts)
	if warm != cold {
		t.Error("warm sharded output differs from cold")
	}
	if mWarm.Source.FramesDecoded != 0 || mWarm.TotalEncodes() != 0 {
		t.Errorf("warm sharded run did work: %d decodes, %d encodes",
			mWarm.Source.FramesDecoded, mWarm.TotalEncodes())
	}
	// The same segment cut elsewhere has its keyframes elsewhere: the
	// entry above is not its bytes and must not be served to it.
	other := build()
	other.Segments[0].Cuts = []int{other.Segments[0].Cuts[0] + 1}
	recut, mRecut := runStream(t, other, opts)
	if mRecut.ResultCacheHits != 0 || mRecut.ResultCacheMisses != 1 {
		t.Errorf("plan with other cuts: hits=%d misses=%d, want a miss", mRecut.ResultCacheHits, mRecut.ResultCacheMisses)
	}
	if recut == cold {
		t.Error("plans with different cuts produced the same bytes (the test no longer tells them apart)")
	}
}

// Overlapping concurrent queries with matching fingerprints share one
// render singleflight-style: the segment is rendered once, every other
// request splices it.
func TestResultCacheConcurrentRequestsShareRender(t *testing.T) {
	const workers = 4
	body := `render(t) = grade(v[t], 5, 1.0, 1.0);`
	rc := media.NewCache(-1, 0, 1)

	outs := make([]string, workers)
	metrics := make([]*Metrics, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		p := buildPlan(t, body, false)
		wg.Add(1)
		go func(i int, p *plan.Plan) {
			defer wg.Done()
			var buf strings.Builder
			sink, err := media.NewStreamWriter(&nopWriter{&buf}, p.Checked.Output)
			if err != nil {
				t.Error(err)
				return
			}
			m, err := ExecuteTo(context.Background(), p, sink, Options{Cache: rc})
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = buf.String()
			metrics[i] = m
		}(i, p)
	}
	wg.Wait()

	var decodes int64
	for i := 0; i < workers; i++ {
		if outs[i] == "" || metrics[i] == nil {
			t.Fatalf("worker %d did not finish", i)
		}
		if outs[i] != outs[0] {
			t.Errorf("worker %d output differs", i)
		}
		decodes += metrics[i].Source.FramesDecoded
	}
	solo, _ := runStream(t, buildPlan(t, body, false), Options{})
	if solo != outs[0] {
		t.Error("shared-render output differs from an uncached run")
	}
	// One worker rendered (paying the decodes), the rest spliced. Allow
	// scheduling slack, but demand real sharing.
	st := rc.Stats(media.KindResult)
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 render across %d requests", st.Misses, workers)
	}
	if st.Hits != int64(workers-1) {
		t.Errorf("hits = %d, want %d", st.Hits, workers-1)
	}
	_ = decodes
}

// The stale-source guard: rewriting a source file in place must not serve
// the old cached result — the content identity changes the key, so the
// new run re-renders from the new bytes. With the GOP cache on as well
// (v2vserve's default), the old decoded frames are keyed out the same
// way.
func TestResultCacheStaleSourceNotServed(t *testing.T) {
	for name, gopMB := range map[string]int64{"gop cache off": -1, "gop cache on": 0} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			vid := filepath.Join(dir, "mut.vmf")
			prof := dataset.TinyProfile()
			if _, err := dataset.Generate(vid, "", prof, rational.FromInt(4)); err != nil {
				t.Fatal(err)
			}
			build := func() *plan.Plan {
				t.Helper()
				p, err := buildPlanFor(t, vid, `render(t) = grade(v[t], 5, 1.0, 1.0);`, false)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}

			opts := Options{Cache: media.NewCache(gopMB, 0, 1)}
			before, _ := runStream(t, build(), opts)

			// Rewrite the source in place: same path, different content.
			prof.Seed = 1234
			if _, err := dataset.Generate(vid, "", prof, rational.FromInt(4)); err != nil {
				t.Fatal(err)
			}

			after, mAfter := runStream(t, build(), opts)
			if after == before {
				t.Error("rewritten source served the stale cached result")
			}
			if mAfter.ResultCacheHits != 0 {
				t.Errorf("run over the rewritten source hit the cache %d times", mAfter.ResultCacheHits)
			}
			if mAfter.Source.FramesDecoded == 0 {
				t.Error("run over the rewritten source decoded nothing")
			}
			// Ground truth: an uncached run over the new file matches.
			clean, _ := runStream(t, build(), Options{})
			if after != clean {
				t.Error("cached-path output over the rewritten source differs from an uncached run")
			}
		})
	}
}

// Two concurrent heavy queries sharing one constrained cache: both must
// complete correctly, and the combined resident bytes must respect the
// budget.
func TestConcurrentQueriesConstrainedSharedBudget(t *testing.T) {
	bodies := []string{
		`render(t) = grade(v[t], 5, 1.0, 1.0);`,
		`render(t) = grade(zoom(v[t], 2), 10, 1.1, 1.0);`,
	}
	// A budget far below what the working sets would like: the tiny
	// fixture decodes ~1 MiB of frames per GOP and the two queries touch
	// two GOPs each; give the pair 1.5 MiB total so eviction pressure is
	// real.
	cache := media.NewCache(1<<20, 1<<19, 1)
	opts := Options{Cache: cache}

	refs := make([]string, len(bodies))
	for i, b := range bodies {
		refs[i], _ = runStream(t, buildPlan(t, b, false), Options{})
	}

	var wg sync.WaitGroup
	outs := make([][]string, len(bodies))
	for i := range bodies {
		outs[i] = make([]string, 2)
		for round := 0; round < 2; round++ {
			p := buildPlan(t, bodies[i], false)
			wg.Add(1)
			go func(i, round int, p *plan.Plan) {
				defer wg.Done()
				var buf strings.Builder
				sink, err := media.NewStreamWriter(&nopWriter{&buf}, p.Checked.Output)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := ExecuteTo(context.Background(), p, sink, opts); err != nil {
					t.Error(err)
					return
				}
				outs[i][round] = buf.String()
			}(i, round, p)
		}
	}
	wg.Wait()

	for i := range bodies {
		for round := 0; round < 2; round++ {
			if outs[i][round] != refs[i] {
				t.Errorf("query %d round %d output differs from uncached reference", i, round)
			}
		}
	}
	b := cache.BudgetStats()
	if b.Used > b.Total {
		t.Errorf("cache holds %d bytes, over its %d budget", b.Used, b.Total)
	}
	gs, rs := cache.Stats(media.KindGOP), cache.Stats(media.KindResult)
	if gs.Bytes+rs.Bytes != b.Used {
		t.Errorf("per-kind bytes %d+%d disagree with the %d resident", gs.Bytes, rs.Bytes, b.Used)
	}
	if b.Used == 0 {
		t.Error("nothing was cached at all under the shared budget")
	}
}
