package media

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"v2v/internal/frame"
)

// entryBytes is the charged size of every test entry of either kind: four
// 16x16 gray frames, or one 992-byte packet plus its 32-byte overhead.
const entryBytes = 1024

// fakeGOP builds four small pooled frames, each carrying the one
// reference a fill hands to the cache.
func fakeGOP() []*frame.Frame {
	out := make([]*frame.Frame, 4)
	for i := range out {
		out[i] = frame.DefaultPool().Get(16, 16, frame.FormatGray8)
	}
	return out
}

func fakeSegment() *ResultSegment {
	return NewResultSegment([]EncodedPacket{{Key: true, Data: make([]byte, entryBytes-32)}})
}

// newCache returns a cache holding both kinds under a budget of n entries.
func newCache(n int) *Cache { return NewCache(int64(n-1)*entryBytes, entryBytes, 1) }

// kindCase runs one kind of entry through a common lookup, so every
// behaviour of the fill protocol is checked on both kinds.
type kindCase struct {
	kind Kind
	// get looks up entry n; on a miss it calls fill, which may block,
	// fail or panic, then fills one entry of entryBytes. It checks that a
	// successful lookup produced the value and releases what it took.
	get func(t *testing.T, c *Cache, ctx context.Context, n int, fill func() error) (hit bool, err error)
}

var kindCases = []kindCase{
	{KindGOP, func(t *testing.T, c *Cache, ctx context.Context, n int, fill func() error) (bool, error) {
		fr, hit, err := c.GOP(ctx, "a.vmf", 4*n, 3, func() ([]*frame.Frame, error) {
			if err := fill(); err != nil {
				return nil, err
			}
			return fakeGOP(), nil
		})
		if err == nil && fr == nil {
			t.Errorf("gop %d: no frame", n)
		}
		fr.Release()
		return hit, err
	}},
	{KindResult, func(t *testing.T, c *Cache, ctx context.Context, n int, fill func() error) (bool, error) {
		seg, hit, filled, err := c.Result(ctx, fmt.Sprintf("k%d", n), func() (*ResultSegment, error) {
			if err := fill(); err != nil {
				return nil, err
			}
			return fakeSegment(), nil
		})
		if err == nil && (seg == nil || seg.Bytes() != entryBytes) {
			t.Errorf("result %d: segment %v", n, seg)
		}
		if filled == hit && err == nil {
			t.Errorf("result %d: filled=%v hit=%v", n, filled, hit)
		}
		return hit, err
	}},
}

func noFill() error { return nil }

// awaitWaiters blocks until n lookups wait on the in-flight fill of any
// key, so a test can end the fill knowing who shares it.
func awaitWaiters(t *testing.T, c *Cache, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		var joined int32
		for _, f := range c.inflight {
			joined += f.parties.Load() - 1
		}
		c.mu.Unlock()
		if joined >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters joined the fill, want %d", joined, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockedFill starts a lookup of entry 0 whose fill runs end once it is
// released; the returned channel yields the lookup's error.
func blockedFill(t *testing.T, k kindCase, c *Cache, end func() error) (release func(), done <-chan error) {
	entered, gate := make(chan struct{}), make(chan struct{})
	out := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out <- fmt.Errorf("panic: %v", r)
			}
		}()
		_, err := k.get(t, c, context.Background(), 0, func() error {
			close(entered)
			<-gate
			return end()
		})
		out <- err
	}()
	<-entered
	return func() { close(gate) }, out
}

// lookupAsync runs one lookup of entry 0 on its own goroutine.
func lookupAsync(t *testing.T, k kindCase, c *Cache, ctx context.Context) <-chan error {
	out := make(chan error, 1)
	go func() {
		_, err := k.get(t, c, ctx, 0, func() error {
			t.Error("a waiter ran its own fill while one was in flight")
			return nil
		})
		out <- err
	}()
	return out
}

// fillEntry looks up entry n of kind k, filling it on a miss.
func fillEntry(t *testing.T, c *Cache, k kindCase, n int) {
	t.Helper()
	if _, err := k.get(t, c, context.Background(), n, noFill); err != nil {
		t.Fatal(err)
	}
}

// residentKeys lists kind k's resident entries, most recently used first.
func residentKeys(c *Cache, k Kind) []string {
	var keys []string
	for _, e := range c.Entries(k) {
		keys = append(keys, fmt.Sprintf("%s@%d", e.Key, e.Start))
	}
	return keys
}

func TestCache(t *testing.T) {
	for _, k := range kindCases {
		t.Run(k.kind.String(), func(t *testing.T) {
			t.Run("hit after fill", func(t *testing.T) {
				c := newCache(4)
				if hit, err := k.get(t, c, context.Background(), 0, noFill); hit || err != nil {
					t.Fatalf("first lookup: hit=%v err=%v, want a miss", hit, err)
				}
				if hit, err := k.get(t, c, context.Background(), 0, func() error {
					t.Error("resident entry filled again")
					return nil
				}); !hit || err != nil {
					t.Fatalf("second lookup: hit=%v err=%v, want a hit", hit, err)
				}
				if hit, _ := k.get(t, c, context.Background(), 1, noFill); hit {
					t.Error("another key hit the first key's entry")
				}
				want := CacheStats{Hits: 1, Misses: 2, Entries: 2, Bytes: 2 * entryBytes, Budget: c.share[k.kind]}
				if st := c.Stats(k.kind); st != want {
					t.Errorf("stats = %+v, want %+v", st, want)
				}
			})

			t.Run("singleflight", func(t *testing.T) {
				c := newCache(4)
				const workers = 8
				var fills, hits atomic.Int64
				release, filler := blockedFill(t, k, c, func() error { fills.Add(1); return nil })
				var wg sync.WaitGroup
				for i := 1; i < workers; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						hit, err := k.get(t, c, context.Background(), 0, func() error {
							fills.Add(1)
							return nil
						})
						if err != nil || !hit {
							t.Errorf("waiter: hit=%v err=%v", hit, err)
						}
						hits.Add(1)
					}()
				}
				awaitWaiters(t, c, workers-1)
				release()
				wg.Wait()
				if err := <-filler; err != nil {
					t.Fatal(err)
				}
				if n := fills.Load(); n != 1 {
					t.Errorf("fill ran %d times, want 1", n)
				}
				if st := c.Stats(k.kind); st.Hits != workers-1 || st.Misses != 1 {
					t.Errorf("stats = %+v, want %d hits and one miss", st, workers-1)
				}
			})

			t.Run("fill error", func(t *testing.T) {
				c := newCache(4)
				boom := errors.New("fill failed")
				release, filler := blockedFill(t, k, c, func() error { return boom })
				waiter := lookupAsync(t, k, c, context.Background())
				awaitWaiters(t, c, 1)
				release()
				for who, ch := range map[string]<-chan error{"filler": filler, "waiter": waiter} {
					if err := <-ch; !errors.Is(err, boom) {
						t.Errorf("%s err = %v, want the fill's", who, err)
					}
				}
				if st := c.Stats(k.kind); st.Entries != 0 {
					t.Errorf("failed fill was cached: %+v", st)
				}
				if hit, err := k.get(t, c, context.Background(), 0, noFill); hit || err != nil {
					t.Errorf("retry after a failed fill: hit=%v err=%v", hit, err)
				}
			})

			t.Run("panicked fill", func(t *testing.T) {
				c := newCache(4)
				release, filler := blockedFill(t, k, c, func() error { panic("fill exploded") })
				waiter := lookupAsync(t, k, c, context.Background())
				awaitWaiters(t, c, 1)
				release()
				if err := <-filler; err == nil {
					t.Error("fill panic did not propagate to the filler")
				}
				if err := <-waiter; !errors.Is(err, errFillIncomplete) {
					t.Errorf("waiter err = %v, want errFillIncomplete", err)
				}
				if hit, err := k.get(t, c, context.Background(), 0, noFill); hit || err != nil {
					t.Errorf("retry after a panicked fill: hit=%v err=%v", hit, err)
				}
			})

			t.Run("waiter ctx cancel", func(t *testing.T) {
				before := liveFrames()
				c := newCache(4)
				release, filler := blockedFill(t, k, c, noFill)
				ctx, cancel := context.WithCancel(context.Background())
				waiter := lookupAsync(t, k, c, ctx)
				awaitWaiters(t, c, 1)
				cancel()
				if err := <-waiter; !errors.Is(err, context.Canceled) {
					t.Errorf("canceled waiter err = %v, want context.Canceled", err)
				}
				release()
				if err := <-filler; err != nil {
					t.Fatal(err)
				}
				if hit, _ := k.get(t, c, context.Background(), 0, noFill); !hit {
					t.Error("the fill a waiter left did not become resident")
				}
				if got, want := liveFrames()-before, residentFrames(c); got != want {
					t.Errorf("%d pooled frames live, want the %d resident", got, want)
				}
			})

			t.Run("oversized served not cached", func(t *testing.T) {
				c := NewCache(entryBytes/4, entryBytes/4, 1)
				if hit, err := k.get(t, c, context.Background(), 0, noFill); hit || err != nil {
					t.Fatalf("oversized lookup: hit=%v err=%v", hit, err)
				}
				if st := c.Stats(k.kind); st.Entries != 0 || st.Bytes != 0 {
					t.Errorf("oversized entry was cached: %+v", st)
				}
				if b := c.BudgetStats(); b.Denied != 1 || b.Used != 0 {
					t.Errorf("budget = %+v, want one denial and nothing resident", b)
				}
			})
		})
	}

	gop, res := kindCases[0], kindCases[1]
	t.Run("gop index past the GOP", func(t *testing.T) {
		c := newCache(4)
		fillEntry(t, c, gop, 0)
		if fr, hit, err := c.GOP(context.Background(), "a.vmf", 0, 4, nil); fr != nil || !hit || err != nil {
			t.Errorf("frame=%v hit=%v err=%v, want a hit with no frame", fr, hit, err)
		}
	})

	t.Run("pressure shrink and recovery", func(t *testing.T) {
		c := newCache(10)
		for n := 0; n < 5; n++ {
			fillEntry(t, c, gop, n)
			fillEntry(t, c, res, n)
		}
		if b := c.BudgetStats(); b.Used != 10*entryBytes || b.Client["gop"] != 5*entryBytes || b.Client["result"] != 5*entryBytes {
			t.Fatalf("budget = %+v, want it full, split evenly", b)
		}
		c.SetPressureFactor(0.25)
		b := c.BudgetStats()
		if b.Total != 10*entryBytes/4 || b.PressureFactor != 0.25 || b.Used > b.Total {
			t.Errorf("under pressure: %+v, want %d total and at most that resident at once", b, 10*entryBytes/4)
		}
		c.SetPressureFactor(math.NaN()) // ignored
		c.SetPressureFactor(0)          // the smallest shrink, not a closed cache
		if f := c.BudgetStats().PressureFactor; f != 0.05 {
			t.Errorf("factor 0 set %v, want 0.05", f)
		}
		c.SetPressureFactor(1)
		for n := 5; n < 15; n++ {
			fillEntry(t, c, gop, n)
		}
		if b := c.BudgetStats(); b.Total != 10*entryBytes || b.Used != b.Total || b.PressureFactor != 1 {
			t.Errorf("after recovery: %+v, want the full budget refilled", b)
		}
	})
}

// GOPs and results share one LRU under one byte budget: the least
// recently used entry goes, whatever its kind.
func TestGOPCacheLRUEvictionAtByteBudget(t *testing.T) {
	gop, res := kindCases[0], kindCases[1]
	c := newCache(3)
	fillEntry(t, c, gop, 0)
	fillEntry(t, c, res, 0)
	fillEntry(t, c, gop, 1)
	fillEntry(t, c, gop, 0) // touch: result 0 is now least recently used
	fillEntry(t, c, res, 1) // evicts result 0
	fillEntry(t, c, gop, 2) // evicts GOP 1
	if got := fmt.Sprint(residentKeys(c, KindGOP), residentKeys(c, KindResult)); got != "[a.vmf@8 a.vmf@0] [k1@0]" {
		t.Errorf("resident = %s, want GOPs 2 and 0 and result 1", got)
	}
	if g, r := c.Stats(KindGOP), c.Stats(KindResult); g.Evictions != 1 || r.Evictions != 1 {
		t.Errorf("evictions: gop %d, result %d; want one each", g.Evictions, r.Evictions)
	}
}

// A result-only cache evicts its least recently used segment at its
// byte budget.
func TestResultCacheStandaloneLRUEviction(t *testing.T) {
	res := kindCases[1]
	c := NewCache(-1, 2*entryBytes, 1)
	fillEntry(t, c, res, 0)
	fillEntry(t, c, res, 1)
	fillEntry(t, c, res, 0) // touch: result 1 is now least recently used
	fillEntry(t, c, res, 2) // evicts result 1
	if got := fmt.Sprint(residentKeys(c, KindResult)); got != "[k2@0 k0@0]" {
		t.Errorf("resident = %s, want results 2 and 0", got)
	}
	if st := c.Stats(KindResult); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want one eviction and two entries", st)
	}
	if b := c.BudgetStats(); b.Used != 2*entryBytes || len(b.Client) != 1 {
		t.Errorf("budget = %+v, want it full and held by results alone", b)
	}
}

// churn runs goroutines doing lookups over a 20-key working set of both
// kinds, larger than c's budget, so fills and evictions interleave.
func churn(t *testing.T, c *Cache, goroutines int) {
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := (g + i) % 20
				if _, err := kindCases[key%2].get(t, c, context.Background(), key/2, noFill); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Concurrent lookups of mixed keys and kinds leave the per-kind
// accounting consistent and leak no pooled frame.
func TestGOPCacheConcurrentMixedKeysRace(t *testing.T) {
	before := liveFrames()
	c := newCache(6)
	churn(t, c, 8)
	b := c.BudgetStats()
	if b.Used > b.Total || b.Used != b.Client["gop"]+b.Client["result"] {
		t.Errorf("budget = %+v, want per-kind bytes summing to at most the total", b)
	}
	if got, want := liveFrames()-before, residentFrames(c); got != want {
		t.Errorf("%d pooled frames live, want the %d resident", got, want)
	}
}

// The resident bytes stay within the budget at every moment, while fills
// race and the pressure factor shrinks and restores it.
func TestArbiterTotalNeverExceeded(t *testing.T) {
	c := newCache(6)
	stop := make(chan struct{})
	sampled := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				sampled <- n
				return
			default:
			}
			c.SetPressureFactor([]float64{1, 0.25, 0.5}[n%3])
			if b := c.BudgetStats(); b.Used > b.Total {
				t.Errorf("sample %d: %d bytes resident over a %d total", n, b.Used, b.Total)
			}
			n++
		}
	}()
	churn(t, c, 4)
	close(stop)
	if n := <-sampled; n == 0 {
		t.Error("the budget was never sampled during the churn")
	}
	c.SetPressureFactor(1)
	if b := c.BudgetStats(); b.Used > b.Total {
		t.Errorf("budget = %+v, want at most the total resident", b)
	}
}

// A result fill that panics with no one waiting propagates the panic and
// leaves nothing behind: no fill in flight, no bytes, and the next lookup
// runs a fill of its own.
func TestResultCacheFillPanicReleasesKey(t *testing.T) {
	c := newCache(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("fill panic did not propagate to the filler")
			}
		}()
		c.Result(context.Background(), "k0", func() (*ResultSegment, error) { panic("fill exploded") })
	}()
	c.mu.Lock()
	inflight := len(c.inflight)
	c.mu.Unlock()
	if inflight != 0 {
		t.Errorf("%d fills still in flight after the panic", inflight)
	}
	if b := c.BudgetStats(); b.Used != 0 {
		t.Errorf("budget = %+v, want nothing resident", b)
	}
	seg, hit, filled, err := c.Result(context.Background(), "k0", func() (*ResultSegment, error) { return fakeSegment(), nil })
	if err != nil || hit || !filled || seg == nil {
		t.Errorf("retry: seg=%v hit=%v filled=%v err=%v, want a fresh fill", seg, hit, filled, err)
	}
}

// Every waiter on a result fill that panics sees errFillIncomplete, runs
// no fill of its own, and counts no hit.
func TestResultCacheWaiterSeesPanickedFill(t *testing.T) {
	const waiters = 3
	c := newCache(4)
	release, filler := blockedFill(t, kindCases[1], c, func() error { panic("fill exploded") })
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			seg, hit, filled, err := c.Result(context.Background(), "k0", func() (*ResultSegment, error) {
				t.Error("a waiter ran its own fill while one was in flight")
				return fakeSegment(), nil
			})
			if seg != nil || hit || filled {
				t.Errorf("waiter: seg=%v hit=%v filled=%v, want none", seg, hit, filled)
			}
			errs <- err
		}()
	}
	awaitWaiters(t, c, waiters)
	release()
	if err := <-filler; err == nil {
		t.Error("fill panic did not propagate to the filler")
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, errFillIncomplete) {
			t.Errorf("waiter err = %v, want errFillIncomplete", err)
		}
	}
	if st := c.Stats(KindResult); st.Hits != 0 || st.Misses != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want one miss and nothing else", st)
	}
}

// A cache with both kinds off is nil, and a nil cache holds nothing.
func TestCacheKindsOff(t *testing.T) {
	if c := NewCache(-1, -1, 4); c != nil {
		t.Fatalf("both kinds off: %+v, want nil", c)
	}
	var nilCache *Cache
	c := NewCache(-1, 0, 4)
	for _, tc := range []struct {
		c    *Cache
		kind Kind
		want bool
	}{{nilCache, KindGOP, false}, {c, KindGOP, false}, {c, KindResult, true}} {
		if got := tc.c.Holds(tc.kind); got != tc.want {
			t.Errorf("Holds(%s) = %v, want %v", tc.kind, got, tc.want)
		}
	}
	if b := c.BudgetStats(); b.Total != DefaultResultShare || len(b.Client) != 1 {
		t.Errorf("result-only budget = %+v, want the default result share alone", b)
	}
}
