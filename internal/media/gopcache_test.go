package media

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"v2v/internal/frame"
)

// fakeGOP builds n small pooled frames totalling n*fakeFrameBytes bytes,
// each carrying the one reference a fill hands to the cache.
func fakeGOP(n int) []*frame.Frame {
	out := make([]*frame.Frame, n)
	for i := range out {
		out[i] = frame.DefaultPool().Get(16, 16, frame.FormatGray8) // 256 bytes each
	}
	return out
}

// lookup is GetOrFill for tests that do not keep the frame.
func lookup(c *GOPCache, path string, start int, fill func() ([]*frame.Frame, error)) (hit bool, err error) {
	fr, hit, err := c.GetOrFill(path, start, 0, fill)
	fr.Release()
	return hit, err
}

const fakeFrameBytes = 16 * 16

func TestGOPCacheHitAfterFill(t *testing.T) {
	c := NewGOPCache(1 << 20)
	fills := 0
	get := func() (*frame.Frame, bool, error) {
		return c.GetOrFill("a.vmf", 0, 0, func() ([]*frame.Frame, error) {
			fills++
			return fakeGOP(4), nil
		})
	}
	fr1, hit, err := get()
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v, want miss", hit, err)
	}
	fr2, hit, err := get()
	if err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v, want hit", hit, err)
	}
	if fills != 1 {
		t.Errorf("fills = %d, want 1", fills)
	}
	if fr1 != fr2 {
		t.Error("hit did not return the cached frame")
	}
	fr1.Release()
	fr2.Release()
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 4*fakeFrameBytes {
		t.Errorf("stats = %+v", st)
	}
}

func TestGOPCacheLRUEvictionAtByteBudget(t *testing.T) {
	// Budget for exactly 3 four-frame GOPs.
	c := NewGOPCache(3 * 4 * fakeFrameBytes)
	fill := func(path string, start int) {
		t.Helper()
		if _, err := lookup(c, path, start, func() ([]*frame.Frame, error) {
			return fakeGOP(4), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	fill("a.vmf", 0)
	fill("a.vmf", 4)
	fill("a.vmf", 8)
	// Touch GOP 0 so GOP 4 is the least recently used.
	if hit, _ := lookup(c, "a.vmf", 0, nil); !hit {
		t.Fatal("GOP 0 should be resident")
	}
	fill("a.vmf", 12) // over budget: evicts GOP 4
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 3*4*fakeFrameBytes {
		t.Errorf("stats after eviction = %+v", st)
	}
	if hit, _ := lookup(c, "a.vmf", 0, nil); !hit {
		t.Error("recently-touched GOP 0 was evicted")
	}
	refilled := false
	if hit, err := lookup(c, "a.vmf", 4, func() ([]*frame.Frame, error) {
		refilled = true
		return fakeGOP(4), nil
	}); hit || err != nil {
		t.Errorf("evicted GOP 4: hit=%v err=%v, want refill", hit, err)
	}
	if !refilled {
		t.Error("evicted GOP 4 was not refilled")
	}
}

func TestGOPCacheOversizedGOPServedNotCached(t *testing.T) {
	c := NewGOPCache(2 * fakeFrameBytes)
	fr, hit, err := c.GetOrFill("a.vmf", 0, 3, func() ([]*frame.Frame, error) {
		return fakeGOP(4), nil // 4 frames > 2-frame budget
	})
	if err != nil || hit || fr == nil {
		t.Fatalf("oversized fill: frame=%v hit=%v err=%v", fr, hit, err)
	}
	// Nothing else holds the uncached GOP: this is the last reference.
	fr.Release()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("oversized GOP was cached: %+v", st)
	}
}

func TestGOPCacheSingleflightDedup(t *testing.T) {
	c := NewGOPCache(1 << 20)
	var fills atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once

	const workers = 8
	var wg sync.WaitGroup
	hits := make([]bool, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hit, err := lookup(c, "a.vmf", 0, func() ([]*frame.Frame, error) {
				fills.Add(1)
				once.Do(func() { close(started) })
				<-gate // hold the fill open so the others pile up
				return fakeGOP(4), nil
			})
			hits[i], errs[i] = hit, err
		}(i)
	}
	<-started
	close(gate)
	wg.Wait()

	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times, want 1", n)
	}
	nHits := 0
	for i := range hits {
		if errs[i] != nil {
			t.Errorf("worker %d: %v", i, errs[i])
		}
		if hits[i] {
			nHits++
		}
	}
	if nHits != workers-1 {
		t.Errorf("%d hits, want %d (everyone but the filler)", nHits, workers-1)
	}
}

func TestGOPCacheFillErrorSharedNotCached(t *testing.T) {
	c := NewGOPCache(1 << 20)
	boom := errors.New("decode failed")
	if _, err := lookup(c, "a.vmf", 0, func() ([]*frame.Frame, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("failed fill was cached: %+v", st)
	}
	// The key is released: a later fill can succeed.
	if hit, err := lookup(c, "a.vmf", 0, func() ([]*frame.Frame, error) {
		return fakeGOP(2), nil
	}); hit || err != nil {
		t.Errorf("retry after failed fill: hit=%v err=%v", hit, err)
	}
}

func TestGOPCachePanickingFillReleasesWaiters(t *testing.T) {
	c := NewGOPCache(1 << 20)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("fill panic did not propagate")
			}
		}()
		c.GetOrFill("a.vmf", 0, 0, func() ([]*frame.Frame, error) {
			panic("fill exploded")
		})
	}()
	// The inflight entry must be gone and the key usable again.
	if hit, err := lookup(c, "a.vmf", 0, func() ([]*frame.Frame, error) {
		return fakeGOP(2), nil
	}); hit || err != nil {
		t.Errorf("after panicked fill: hit=%v err=%v", hit, err)
	}
}

func TestGOPCacheDistinctKeysDoNotCollide(t *testing.T) {
	c := NewGOPCache(1 << 20)
	for i, k := range []struct {
		path  string
		start int
	}{{"a.vmf", 0}, {"a.vmf", 24}, {"b.vmf", 0}} {
		n := i + 1
		last, hit, err := c.GetOrFill(k.path, k.start, n-1, func() ([]*frame.Frame, error) {
			return fakeGOP(n), nil
		})
		if hit || err != nil || last == nil {
			t.Fatalf("key %v: last frame=%v hit=%v err=%v", k, last, hit, err)
		}
		last.Release()
		if past, _, _ := c.GetOrFill(k.path, k.start, n, nil); past != nil {
			t.Fatalf("key %v: index %d past the GOP returned a frame", k, n)
		}
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Errorf("entries = %d, want 3", st.Entries)
	}
}

func TestGOPCacheSetBudgetIfUnset(t *testing.T) {
	c := NewGOPCache(0)
	if got := c.Budget(); got != FallbackGOPCacheBytes {
		t.Errorf("unset budget = %d, want fallback %d", got, FallbackGOPCacheBytes)
	}
	c.SetBudgetIfUnset(1 << 20)
	c.SetBudgetIfUnset(1 << 30) // later calls lose
	if got := c.Budget(); got != 1<<20 {
		t.Errorf("budget = %d, want first setter's %d", got, 1<<20)
	}
	c2 := NewGOPCache(512)
	c2.SetBudgetIfUnset(1 << 20) // no-op: set at construction
	if got := c2.Budget(); got != 512 {
		t.Errorf("constructed budget overridden: %d", got)
	}
}

func TestGOPCacheConcurrentMixedKeysRace(t *testing.T) {
	c := NewGOPCache(6 * 4 * fakeFrameBytes) // small: forces eviction churn
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := (g + i) % 10
				_, err := lookup(c, fmt.Sprintf("v%d.vmf", key%2), key*4, func() ([]*frame.Frame, error) {
					return fakeGOP(4), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > c.Budget() {
		t.Errorf("resident bytes %d exceed budget %d", st.Bytes, c.Budget())
	}
}
