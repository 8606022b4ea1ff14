package media

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"v2v/internal/data"
	"v2v/internal/frame"
	"v2v/internal/obs"
)

// Kind is what a cache entry holds.
type Kind int

const (
	// KindGOP entries are the decoded frames of one source group of
	// pictures, keyed by (source content ID, keyframe packet index).
	KindGOP Kind = iota
	// KindResult entries are the encoded packets of one rendered output
	// segment, keyed by plan fingerprint (plan.Fingerprinter).
	KindResult
	// KindData entries are parsed annotation files, keyed by the SHA-256
	// of the file's bytes. The kind has no share of its own: it is held
	// whenever a cache exists, and its bytes count against the budget the
	// other kinds' shares sum to.
	KindData
	numKinds
)

// String names the kind as the budget split and /debug/caches do.
func (k Kind) String() string { return [...]string{"gop", "result", "data"}[k] }

// Cache metrics, exported via the default obs registry (scraped at
// v2vserve's /metrics; see docs/OBSERVABILITY.md). Every Cache in the
// process feeds the same instruments; the cmds create exactly one.
var (
	kindMetrics = [numKinds]struct {
		hits, misses, evictions *obs.Counter
		bytes                   *obs.Gauge
	}{
		KindGOP: {
			obs.Default().Counter("v2v_gopcache_hits_total",
				"Decoded-GOP cache hits, including singleflight waiters served by a concurrent fill."),
			obs.Default().Counter("v2v_gopcache_misses_total",
				"Decoded-GOP cache misses (fills performed)."),
			obs.Default().Counter("v2v_gopcache_evictions_total",
				"Decoded GOPs evicted to stay under the byte budget."),
			obs.Default().Gauge("v2v_gopcache_bytes",
				"Decoded frame bytes currently resident in the cache."),
		},
		KindResult: {
			obs.Default().Counter("v2v_rescache_hits_total",
				"Encoded-result cache hits (segments spliced without rendering), including singleflight waiters."),
			obs.Default().Counter("v2v_rescache_misses_total",
				"Encoded-result cache misses (segments rendered and filled)."),
			obs.Default().Counter("v2v_rescache_evictions_total",
				"Cached result segments evicted to stay under the byte budget."),
			obs.Default().Gauge("v2v_rescache_bytes",
				"Encoded packet bytes currently resident in the cache."),
		},
		KindData: {
			obs.Default().Counter("v2v_datacache_hits_total",
				"Parsed data-file cache hits, including singleflight waiters."),
			obs.Default().Counter("v2v_datacache_misses_total",
				"Parsed data-file cache misses (files parsed)."),
			obs.Default().Counter("v2v_datacache_evictions_total",
				"Parsed data files evicted to stay under the byte budget."),
			obs.Default().Gauge("v2v_datacache_bytes",
				"Parsed data-array bytes currently resident in the cache."),
		},
	}
	cacheBudget = obs.Default().Gauge("v2v_cache_budget_bytes",
		"Byte budget decoded GOPs, encoded results and parsed data files share, scaled by the memory-pressure factor.")
)

// DefaultResultShare is what a zero result share stands for.
const DefaultResultShare = 256 << 20

// largestGOPBytes bounds one decoded GOP of the bundled source profiles:
// the ToS-sim film's 240-frame GOPs of 384x172 YUV 4:2:0 are 23.8 MB.
const largestGOPBytes = 24 << 20

// defaultGOPShare is what a zero GOP share stands for at the given
// parallelism: each shard worker keeps up to DefaultCursorsPerVideo
// interleaved streams (a 4-tap grid uses four, plus one for a
// GOP-boundary straddle) and each stream pins one GOP. An LRU below that
// live set thrashes — every fill evicts a GOP another stream is about to
// read — so it holds the live set with 1.5x headroom, never fewer than 8
// of the largest GOPs, and never more than 1 GiB.
func defaultGOPShare(parallelism int) int64 {
	gops := max(int64(max(parallelism, 1))*DefaultCursorsPerVideo*3/2, 8)
	return min(gops*largestGOPBytes, 1<<30)
}

// Cache is V2V's one store for reusable work, shared by every shard
// worker of a run and, in v2vserve, by every request: decoded source GOPs
// (the decode-once layer — every tap that needs a frame of a GOP shares
// one decode of it) and the encoded packets of rendered segments (a
// repeated or overlapping query splices them instead of rendering), and
// parsed annotation files (a request over a file another has read skips
// the parse). All kinds live in one LRU list under one byte budget, fixed
// at construction as the sum of the GOP and result shares; the
// memory-pressure factor scales it.
//
// Fills are deduplicated singleflight-style: when several goroutines miss
// on one key concurrently, one runs its fill callback and the rest block
// and share the result (counted as hits — they did no work). A failed or
// panicked fill caches nothing and frees the key for a retry. An entry
// larger than the whole budget is served but never cached.
//
// Resident values are shared between goroutines and must be treated as
// immutable. Decoded frames are pooled: an entry holds one reference to
// each of its frames from insertion to eviction, and a lookup hands its
// caller a reference of its own to the frame it asked for, taken while
// the entry cannot be evicted, so an eviction never recycles a buffer a
// reader still holds.
type Cache struct {
	// share is each kind's part of budget; 0 turns GOP or result entries
	// off. Data entries have none and are always held.
	share  [numKinds]int64
	budget int64

	mu       sync.Mutex
	factor   float64 // memory-pressure multiplier of budget, in [0.05, 1]
	bytes    int64
	lru      *list.List // front = most recently used, values *cacheEntry
	entries  map[cacheKey]*list.Element
	inflight map[cacheKey]*cacheFill
	kinds    [numKinds]CacheStats
	denied   int64
}

// cacheKey is comparable, so a lookup allocates nothing.
type cacheKey struct {
	kind  Kind
	name  string // source content ID (GOP), plan fingerprint (result) or file hash (data)
	start int    // packet index of a GOP's keyframe
}

// cacheValue is a GOP's frames, a result's segment or a parsed data file.
type cacheValue struct {
	frames []*frame.Frame
	seg    *ResultSegment
	arr    *data.Array
}

func (v cacheValue) bytes() int64 {
	var b int64
	for _, fr := range v.frames {
		if fr != nil {
			b += int64(len(fr.Pix))
		}
	}
	if v.seg != nil {
		b += v.seg.bytes
	}
	if v.arr != nil {
		b += v.arr.Bytes()
	}
	return b
}

type cacheEntry struct {
	key   cacheKey
	val   cacheValue
	bytes int64
}

type cacheFill struct {
	done chan struct{}
	val  cacheValue // a GOP's frames carry one reference each, the fill's until its last party leaves
	err  error
	// parties counts the filler plus the waiters that joined (under
	// Cache.mu) before the fill completed; see leave.
	parties atomic.Int32
}

// errFillIncomplete is what waiters observe when a fill panicked before
// producing a result; callers fall back to doing the work directly.
var errFillIncomplete = errors.New("media: cache fill did not complete")

// NewCache returns a cache whose byte budget is the sum of the two
// shares. A negative share turns that kind off; a zero GOP share stands
// for enough decoded GOPs for parallelism shard workers, a zero result
// share for DefaultResultShare. With GOP and result entries both off it
// returns nil, which every user of a *Cache reads as no cache.
func NewCache(gopShare, resultShare int64, parallelism int) *Cache {
	if gopShare < 0 && resultShare < 0 {
		return nil
	}
	c := &Cache{
		factor:   1,
		lru:      list.New(),
		entries:  map[cacheKey]*list.Element{},
		inflight: map[cacheKey]*cacheFill{},
	}
	defaults := [...]int64{defaultGOPShare(parallelism), DefaultResultShare}
	for k, s := range [...]int64{gopShare, resultShare} {
		switch {
		case s < 0:
			s = 0
		case s == 0:
			s = defaults[k]
		}
		c.share[k], c.kinds[k].Budget = s, s
		c.budget += s
	}
	cacheBudget.Set(float64(c.budget))
	return c
}

// Holds reports whether c caches entries of kind k; false on a nil Cache.
func (c *Cache) Holds(k Kind) bool { return c != nil && (c.share[k] > 0 || k == KindData) }

// GOP returns frame idx (nil if outside the GOP) of the GOP starting at
// packet index start of the source whose content ID is id; the caller
// owns one reference to it. On a miss fill decodes the GOP (packets
// [start, nextKeyframe)) into frames carrying one reference each, which
// the cache takes over. hit reports whether this caller avoided the
// decode (resident entry or singleflight wait). A fill error is returned
// to every waiter; a waiter whose ctx ends first returns ctx's error.
func (c *Cache) GOP(ctx context.Context, id string, start, idx int, fill func() ([]*frame.Frame, error)) (fr *frame.Frame, hit bool, err error) {
	_, fr, hit, _, err = c.getOrFill(ctx, cacheKey{kind: KindGOP, name: id, start: start}, idx, func() (cacheValue, error) {
		frames, err := fill()
		return cacheValue{frames: frames}, err
	})
	return fr, hit, err
}

// Result returns the cached encoded segment for key, or runs fill to
// produce it. hit reports whether this caller avoided rendering; filled
// reports whether this caller ran fill, so an error with filled=false
// came from a concurrent fill or ctx, and the caller may render directly.
func (c *Cache) Result(ctx context.Context, key string, fill func() (*ResultSegment, error)) (seg *ResultSegment, hit, filled bool, err error) {
	v, _, hit, filled, err := c.getOrFill(ctx, cacheKey{kind: KindResult, name: key}, -1, func() (cacheValue, error) {
		seg, err := fill()
		return cacheValue{seg: seg}, err
	})
	return v.seg, hit, filled, err
}

// Data returns the parsed data array of the file whose content hash is
// key, or runs parse to produce it. The array is shared with every other
// caller and must not be mutated. A parse error caches nothing and is
// returned to every caller that waited on that parse.
func (c *Cache) Data(ctx context.Context, key string, parse func() (*data.Array, error)) (arr *data.Array, hit bool, err error) {
	v, _, hit, _, err := c.getOrFill(ctx, cacheKey{kind: KindData, name: key}, -1, func() (cacheValue, error) {
		arr, err := parse()
		return cacheValue{arr: arr}, err
	})
	return v.arr, hit, err
}

// getOrFill is the one fill protocol behind GOP, Result and Data. idx >= 0
// selects the GOP frame the caller gets a reference to.
func (c *Cache) getOrFill(ctx context.Context, key cacheKey, idx int, fill func() (cacheValue, error)) (v cacheValue, fr *frame.Frame, hit, filled bool, err error) {
	m := &kindMetrics[key.kind]
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		if idx >= 0 {
			fr = frameAt(e.val.frames, idx).Retain()
		}
		c.kinds[key.kind].Hits++
		c.mu.Unlock()
		m.hits.Inc()
		return e.val, fr, true, false, nil
	}
	if f, ok := c.inflight[key]; ok {
		f.parties.Add(1)
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			f.leave(-1)
			return cacheValue{}, nil, false, false, ctx.Err()
		}
		fr = f.leave(idx)
		if f.err != nil {
			return cacheValue{}, nil, false, false, f.err
		}
		c.mu.Lock()
		c.kinds[key.kind].Hits++
		c.mu.Unlock()
		m.hits.Inc()
		return f.val, fr, true, false, nil
	}
	f := &cacheFill{done: make(chan struct{}), err: errFillIncomplete}
	f.parties.Add(1)
	c.inflight[key] = f
	c.kinds[key.kind].Misses++
	c.mu.Unlock()
	m.misses.Inc()

	// Run the fill outside the lock so distinct keys fill in parallel. The
	// deferred cleanup runs even if fill panics (the panic propagates to
	// the caller's recover backstop): waiters then see errFillIncomplete.
	// The inflight entry stays registered until the critical section that
	// inserts, so no second fill of this key can have started.
	func() {
		defer func() {
			c.mu.Lock()
			delete(c.inflight, key)
			if f.err == nil {
				c.insertLocked(key, f.val)
			}
			c.mu.Unlock()
			close(f.done)
		}()
		f.val, f.err = fill()
	}()
	return f.val, f.leave(idx), false, true, f.err
}

// frameAt returns frames[idx], or nil when idx is out of range.
func frameAt(frames []*frame.Frame, idx int) *frame.Frame {
	if idx < 0 || idx >= len(frames) {
		return nil
	}
	return frames[idx]
}

// leave takes one party out of a fill. With idx >= 0 the fill has
// completed and the party takes frame idx with a reference of its own; a
// waiter giving up early passes -1 and reads nothing. The last party out
// drops the fill's references: the frames then live as long as the cache
// entry (if one was admitted) and the callers that took them.
func (f *cacheFill) leave(idx int) *frame.Frame {
	var fr *frame.Frame
	if idx >= 0 {
		fr = frameAt(f.val.frames, idx).Retain()
	}
	if f.parties.Add(-1) == 0 {
		for _, held := range f.val.frames {
			held.Release()
		}
	}
	return fr
}

// limitLocked is the budget scaled by the pressure factor.
func (c *Cache) limitLocked() int64 { return int64(float64(c.budget) * c.factor) }

// insertLocked makes a filled value resident, taking the cache's own
// reference to each of its frames, and evicts from the LRU tail until the
// budget holds. A value larger than the whole budget is not cached.
func (c *Cache) insertLocked(key cacheKey, v cacheValue) {
	b := v.bytes()
	if b <= 0 {
		return
	}
	if b > c.limitLocked() {
		c.denied++
		return
	}
	for _, fr := range v.frames {
		fr.Retain() // removeLocked releases it
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: v, bytes: b})
	c.accountLocked(key.kind, 1, b)
	c.shrinkLocked()
}

// shrinkLocked evicts from the LRU tail, whatever the kind, until the
// resident bytes fit the budget.
func (c *Cache) shrinkLocked() {
	for c.bytes > c.limitLocked() {
		el := c.lru.Back()
		e := el.Value.(*cacheEntry)
		for _, fr := range e.val.frames {
			fr.Release() // drop the reference taken at insertion
		}
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.kinds[e.key.kind].Evictions++
		kindMetrics[e.key.kind].evictions.Inc()
		c.accountLocked(e.key.kind, -1, -e.bytes)
	}
}

func (c *Cache) accountLocked(k Kind, entries int, b int64) {
	c.bytes += b
	c.kinds[k].Entries += entries
	c.kinds[k].Bytes += b
	kindMetrics[k].bytes.Add(float64(b))
}

// SetPressureFactor scales the budget by f, clamped to [0.05, 1] (a NaN
// is ignored; 1 restores the full budget). The admission subsystem's
// memory-pressure monitor drives it. A shrink evicts from the LRU tail at
// once rather than on the next insertion.
func (c *Cache) SetPressureFactor(f float64) {
	if f != f {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.factor = min(max(f, 0.05), 1)
	c.shrinkLocked()
	cacheBudget.Set(float64(c.limitLocked()))
}

// CacheStats is a point-in-time snapshot of one kind's counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	// Budget is the kind's share of the cache's budget; 0 for data
	// entries, which have none. The kinds share one LRU, so a kind may
	// hold more while another holds less.
	Budget int64 `json:"budget"`
}

// GOPCacheStats and ResultCacheStats are CacheStats under the names
// bench/serverside.go decodes /debug/caches' "gop" and "result" sections
// into.
type (
	GOPCacheStats    = CacheStats
	ResultCacheStats = CacheStats
)

// Stats snapshots kind k's counters.
func (c *Cache) Stats(k Kind) CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kinds[k]
}

// BudgetStats snapshots the budget and its split between the kinds.
type BudgetStats struct {
	Total int64 `json:"total"` // already scaled by PressureFactor
	Used  int64 `json:"used"`
	// Denied counts fills not cached because they exceed the whole budget.
	Denied int64 `json:"denied"`
	// Client is the resident bytes of each kind with a share; Used also
	// counts the data entries, which have none.
	Client map[string]int64 `json:"client"`
	// PressureFactor is the current memory-pressure budget multiplier
	// (1 = full budget).
	PressureFactor float64 `json:"pressure_factor"`
}

// ArbiterStats is BudgetStats under the name bench/serverside.go decodes
// /debug/caches' "arbiter" section into; internal/benchkit/overload.go
// also decodes that section by its key.
type ArbiterStats = BudgetStats

// BudgetStats snapshots the budget.
func (c *Cache) BudgetStats() BudgetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := BudgetStats{
		Total:          c.limitLocked(),
		Used:           c.bytes,
		Denied:         c.denied,
		Client:         map[string]int64{},
		PressureFactor: c.factor,
	}
	for k := range c.kinds {
		if c.share[k] > 0 {
			s.Client[Kind(k).String()] = c.kinds[k].Bytes
		}
	}
	return s
}

// CacheEntry describes one resident entry, for cache introspection
// (v2vserve's /debug/caches).
type CacheEntry struct {
	Key     string `json:"key"`               // GOP: source content ID; result: plan fingerprint; data: SHA-256 of the file
	Start   int    `json:"start,omitempty"`   // GOP: packet index of the keyframe
	Frames  int    `json:"frames,omitempty"`  // GOP: decoded frames
	Packets int    `json:"packets,omitempty"` // result: encoded packets
	Bytes   int64  `json:"bytes"`
}

// Entries snapshots kind k's resident entries, most recently used first.
func (c *Cache) Entries(k Kind) []CacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CacheEntry, 0, c.kinds[k].Entries)
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry); e.key.kind == k {
			ce := CacheEntry{Key: e.key.name, Start: e.key.start, Frames: len(e.val.frames), Bytes: e.bytes}
			if e.val.seg != nil {
				ce.Packets = len(e.val.seg.Packets)
			}
			out = append(out, ce)
		}
	}
	return out
}

// EncodedPacket is one encoded output packet held by the cache. Data is
// immutable once cached.
type EncodedPacket struct {
	Key  bool
	Data []byte
}

// ResultSegment is an immutable cached render result: the complete,
// in-order encoded packets of one output segment. The first packet is
// always a keyframe (segments are encoded by a fresh encoder), so a
// cached segment splices into any output position.
type ResultSegment struct {
	Packets []EncodedPacket
	bytes   int64
}

// NewResultSegment wraps packets, charging their payload bytes plus a
// small per-packet overhead.
func NewResultSegment(pkts []EncodedPacket) *ResultSegment {
	s := &ResultSegment{Packets: pkts}
	for _, p := range pkts {
		s.bytes += int64(len(p.Data)) + 32
	}
	return s
}

// Bytes returns the charged size of the segment.
func (s *ResultSegment) Bytes() int64 { return s.bytes }
