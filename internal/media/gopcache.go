package media

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"v2v/internal/frame"
	"v2v/internal/obs"
)

// GOP-cache metrics, exported via the default obs registry (scraped at
// v2vserve's /metrics; see docs/OBSERVABILITY.md). Every GOPCache in the
// process feeds the same instruments; in practice the cmds create exactly
// one shared cache.
var (
	gopHits = obs.Default().Counter("v2v_gopcache_hits_total",
		"Decoded-GOP cache hits, including singleflight waiters served by a concurrent fill.")
	gopMisses = obs.Default().Counter("v2v_gopcache_misses_total",
		"Decoded-GOP cache misses (fills performed).")
	gopEvictions = obs.Default().Counter("v2v_gopcache_evictions_total",
		"Decoded GOPs evicted to stay under the byte budget.")
	gopBytes = obs.Default().Gauge("v2v_gopcache_bytes",
		"Decoded frame bytes currently resident in GOP caches.")
	cacheBytesGOP = obs.Default().Gauge(`v2v_cache_bytes{cache="gop"}`,
		"Bytes currently resident, per cache (gop = decoded GOPs, result = encoded segments).")
	cacheBudgetGOP = obs.Default().Gauge(`v2v_cache_budget_bytes{cache="gop"}`,
		"Configured byte budget, per cache (gop = decoded GOPs, result = encoded segments).")
)

// FallbackGOPCacheBytes bounds a cache whose budget was never set — neither
// at construction nor via SetBudgetIfUnset (the executor sizes unset
// budgets from the plan's source formats before first use).
const FallbackGOPCacheBytes = 256 << 20

// GOPCache is a concurrency-safe LRU of decoded groups-of-pictures, keyed
// by (file path, keyframe packet index). It is V2V's decode-once layer:
// every shard worker and every grid tap that needs a frame from the same
// source GOP shares one decode of it, instead of each segmentRunner paying
// the keyframe-to-target roll-forward on its private cursors.
//
// Fills are deduplicated singleflight-style: when several goroutines miss
// on the same GOP concurrently, one runs its fill callback and the rest
// block and share the result (counted as hits — they did no decode work).
// Eviction is least-recently-used at whole-GOP granularity under a byte
// budget; a single GOP larger than the whole budget is served but never
// cached.
//
// Cached frames are shared between goroutines and must be treated as
// immutable — the contract Reader.FrameAtIndex already imposes. They are
// pooled: a resident entry holds one reference to each of its frames from
// insertion to eviction, and GetOrFill hands each caller its own reference
// to the frame it asked for, taken while the entry cannot be evicted, so
// an eviction never recycles a buffer a reader still holds.
type GOPCache struct {
	mu       sync.Mutex
	budget   int64
	bytes    int64
	entries  map[gopKey]*list.Element
	lru      *list.List // front = most recently used, values *gopEntry
	inflight map[gopKey]*gopFill
	client   *BudgetClient

	hits, misses, evictions int64
}

type gopKey struct {
	path  string
	start int // packet index of the GOP's keyframe
}

type gopEntry struct {
	key    gopKey
	frames []*frame.Frame
	bytes  int64
}

type gopFill struct {
	done   chan struct{}
	frames []*frame.Frame // one reference each, the fill's until its last party leaves
	err    error
	// parties counts the filler plus the waiters that joined (under
	// GOPCache.mu) before the fill completed; see leave.
	parties atomic.Int32
}

// errFillIncomplete is what waiters observe when a fill panicked out of
// GetOrFill before producing a result; callers fall back to direct decode.
var errFillIncomplete = errors.New("media: gop cache fill did not complete")

// NewGOPCache returns a cache bounded by budgetBytes of decoded frame data.
// budgetBytes <= 0 leaves the budget unset: the first SetBudgetIfUnset call
// (the executor sizes it from the plan's source formats) decides, with
// FallbackGOPCacheBytes as the backstop.
func NewGOPCache(budgetBytes int64) *GOPCache {
	if budgetBytes > 0 {
		cacheBudgetGOP.Set(float64(budgetBytes))
	}
	return &GOPCache{
		budget:   budgetBytes,
		entries:  map[gopKey]*list.Element{},
		lru:      list.New(),
		inflight: map[gopKey]*gopFill{},
	}
}

// SetBudgetIfUnset installs budgetBytes as the byte budget if none was
// configured at construction. Safe for concurrent use; the first caller
// wins, later calls are no-ops.
func (c *GOPCache) SetBudgetIfUnset(budgetBytes int64) {
	if budgetBytes <= 0 {
		return
	}
	c.mu.Lock()
	if c.budget <= 0 {
		c.budget = budgetBytes
	}
	set := c.budget
	c.mu.Unlock()
	cacheBudgetGOP.Set(float64(set))
}

// AttachArbiter hands eviction decisions to a shared budget arbiter: the
// cache stops enforcing its own cap (its budget becomes the basis of its
// protected floor and of an unset arbiter total) and inserts reserve from
// the arbiter instead. Call once at setup, before the cache serves
// traffic.
func (c *GOPCache) AttachArbiter(a *Arbiter) {
	cl := a.Register("gop", c.Budget, c.evictBytes)
	c.mu.Lock()
	c.client = cl
	c.mu.Unlock()
}

// Budget returns the effective byte budget.
func (c *GOPCache) Budget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.effectiveBudgetLocked()
}

func (c *GOPCache) effectiveBudgetLocked() int64 {
	if c.budget <= 0 {
		return FallbackGOPCacheBytes
	}
	return c.budget
}

// GetOrFill returns frame idx (nil if outside the GOP) of the GOP starting
// at packet index start of path, consulting the cache first; the caller
// owns one reference to it. On a miss the fill callback decodes the GOP
// (packets [start, nextKeyframe)) into frames carrying one reference each,
// which GetOrFill takes over; concurrent misses on the same key run fill
// exactly once and share its result. hit reports whether this caller
// avoided the decode (resident entry or singleflight wait). A fill error
// is returned to every waiter and nothing is cached.
func (c *GOPCache) GetOrFill(path string, start, idx int, fill func() ([]*frame.Frame, error)) (fr *frame.Frame, hit bool, err error) {
	key := gopKey{path: path, start: start}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		fr = frameAt(el.Value.(*gopEntry).frames, idx).Retain()
		c.mu.Unlock()
		gopHits.Inc()
		return fr, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		f.parties.Add(1)
		c.mu.Unlock()
		<-f.done
		fr = f.leave(idx)
		if f.err != nil {
			return nil, false, f.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		gopHits.Inc()
		return fr, true, nil
	}
	f := &gopFill{done: make(chan struct{}), err: errFillIncomplete}
	f.parties.Add(1)
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()
	gopMisses.Inc()

	// Run the fill outside the lock so distinct GOPs decode in parallel.
	// The deferred cleanup runs even if fill panics (the panic propagates
	// to the caller's recover backstop): waiters then see errFillIncomplete
	// and fall back to direct decoding.
	func() {
		defer func() {
			// Admission (which may take the arbiter lock) happens before
			// the cache lock — never the reverse order. The inflight entry
			// stays registered until the same critical section that
			// inserts, so no second fill of this key can have started.
			var b int64
			admitted := false
			if f.err == nil {
				for _, fr := range f.frames {
					if fr != nil {
						b += int64(len(fr.Pix))
					}
				}
				admitted = c.admit(key, b)
			}
			c.mu.Lock()
			delete(c.inflight, key)
			if admitted {
				for _, fr := range f.frames {
					// the cache holds this reference until eviction; removeLocked releases it
					fr.Retain()
				}
				el := c.lru.PushFront(&gopEntry{key: key, frames: f.frames, bytes: b})
				c.entries[key] = el
				c.bytes += b
				gopBytes.Add(float64(b))
				cacheBytesGOP.Add(float64(b))
				if c.client == nil {
					c.evictOverBudgetLocked(el)
				}
			}
			c.mu.Unlock()
			close(f.done)
		}()
		f.frames, f.err = fill()
	}()
	return f.leave(idx), false, f.err
}

// frameAt returns frames[idx], or nil when idx is out of range.
func frameAt(frames []*frame.Frame, idx int) *frame.Frame {
	if idx < 0 || idx >= len(frames) {
		return nil
	}
	return frames[idx]
}

// leave takes one party's frame out of a completed fill, with a reference
// of the party's own; the last party out drops the fill's references, and
// the frames then live as long as the cache entry (if one was admitted)
// and the callers that took them.
func (f *gopFill) leave(idx int) *frame.Frame {
	fr := frameAt(f.frames, idx).Retain()
	if f.parties.Add(-1) == 0 {
		for _, held := range f.frames {
			held.Release()
		}
	}
	return fr
}

// admit decides whether a filled GOP of b bytes may be cached, reserving
// shared budget when an arbiter is attached. Standalone caches admit
// anything that fits their own budget (insertion then evicts from the
// tail). Must be called without holding c.mu.
func (c *GOPCache) admit(key gopKey, b int64) bool {
	c.mu.Lock()
	cl := c.client
	budget := c.effectiveBudgetLocked()
	c.mu.Unlock()
	if b <= 0 {
		return false
	}
	if cl != nil {
		return cl.Reserve(fmt.Sprintf("gop\x00%s\x00%d", key.path, key.start), b)
	}
	return b <= budget
}

// evictOverBudgetLocked evicts from the LRU tail until the standalone
// budget holds, never evicting keep.
func (c *GOPCache) evictOverBudgetLocked(keep *list.Element) {
	budget := c.effectiveBudgetLocked()
	for c.bytes > budget {
		back := c.lru.Back()
		if back == nil || back == keep {
			break
		}
		c.removeLocked(back)
	}
}

func (c *GOPCache) removeLocked(el *list.Element) int64 {
	e := el.Value.(*gopEntry)
	for _, fr := range e.frames {
		fr.Release() // drop the cache's reference taken at insertion
	}
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	c.evictions++
	gopEvictions.Inc()
	gopBytes.Add(-float64(e.bytes))
	cacheBytesGOP.Add(-float64(e.bytes))
	return e.bytes
}

// evictBytes frees at least need bytes from the LRU tail (or empties the
// cache), returning the bytes freed — the arbiter's eviction callback.
func (c *GOPCache) evictBytes(need int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var freed int64
	for freed < need {
		back := c.lru.Back()
		if back == nil {
			break
		}
		freed += c.removeLocked(back)
	}
	return freed
}

// GOPCacheStats is a point-in-time snapshot of one cache's counters.
type GOPCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget"`
}

// Stats snapshots the cache counters.
func (c *GOPCache) Stats() GOPCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return GOPCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Budget:    c.effectiveBudgetLocked(),
	}
}

// GOPCacheEntry describes one resident decoded GOP, for cache
// introspection (v2vserve's /debug/caches).
type GOPCacheEntry struct {
	Path   string `json:"path"`
	Start  int    `json:"start"`
	Frames int    `json:"frames"`
	Bytes  int64  `json:"bytes"`
}

// Entries snapshots the resident entries, most recently used first.
func (c *GOPCache) Entries() []GOPCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]GOPCacheEntry, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*gopEntry)
		out = append(out, GOPCacheEntry{
			Path:   e.key.path,
			Start:  e.key.start,
			Frames: len(e.frames),
			Bytes:  e.bytes,
		})
	}
	return out
}
