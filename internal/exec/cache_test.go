package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"v2v/internal/container"
	"v2v/internal/dataset"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/plan"
)

// failAfterWriter accepts n Writes, then fails every subsequent one.
type failAfterWriter struct {
	mu sync.Mutex
	n  int
}

var errSinkFull = errors.New("sink full (injected)")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n <= 0 {
		return 0, errSinkFull
	}
	w.n--
	return len(p), nil
}

// A sink write error must not end the delivery loop while shard workers
// are still running: the workers write their results until they exit, and
// returning early would leave them behind the caller's deferred cleanup.
// Run under -race; the drain makes it silent.
func TestFailingSinkDrainsShards(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, false)
	setShards(p, 2)
	// Enough budget for the stream header plus a couple of packets, so the
	// failure lands mid-delivery of the first chunk while the second shard
	// can still be in flight.
	sink, err := media.NewStreamWriter(&failAfterWriter{n: 8}, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExecuteTo(context.Background(), p, sink, Options{Parallelism: 2})
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("err = %v, want wrapped %v", err, errSinkFull)
	}
	if !strings.Contains(err.Error(), "deliver") {
		t.Errorf("err = %v, want a shard-delivery error", err)
	}
}

// Concurrent syntheses sharing one GOP cache must (a) be race-free,
// (b) collapse duplicate decode work via singleflight, and (c) produce
// byte-identical output to a cache-less run.
func TestConcurrentSynthesesShareGOPCache(t *testing.T) {
	const workers = 4
	body := `render(t) = grade(v[t], 5, 1.0, 1.0);`

	// Reference: one run with the cache off.
	ref := buildPlan(t, body, false)
	var refBuf strings.Builder
	refSink, err := media.NewStreamWriter(&nopWriter{&refBuf}, ref.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	refM, err := ExecuteTo(context.Background(), ref, refSink, Options{})
	if err != nil {
		t.Fatal(err)
	}

	cache := media.NewCache(0, -1, 1)
	plans := make([]*plan.Plan, workers)
	sinks := make([]*media.Writer, workers)
	bufs := make([]*strings.Builder, workers)
	for i := range plans {
		plans[i] = buildPlan(t, body, false)
		bufs[i] = &strings.Builder{}
		if sinks[i], err = media.NewStreamWriter(&nopWriter{bufs[i]}, plans[i].Checked.Output); err != nil {
			t.Fatal(err)
		}
	}
	decodes := make([]int64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := ExecuteTo(context.Background(), plans[i], sinks[i], Options{Cache: cache})
			if err != nil {
				errs[i] = err
				return
			}
			decodes[i] = m.Source.FramesDecoded
		}(i)
	}
	wg.Wait()

	var total int64
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if bufs[i].String() != refBuf.String() {
			t.Errorf("worker %d output differs from cache-off run", i)
		}
		total += decodes[i]
	}
	// Cache off, every worker decodes all 48 frames itself. Shared cache:
	// the two source GOPs are filled once each (48 decodes), everyone else
	// hits. Allow slack for scheduling, but demand at least a halving.
	off := refM.Source.FramesDecoded * workers
	if total*2 > off {
		t.Errorf("shared-cache decodes = %d, want < half of cache-off %d", total, off)
	}
	st := cache.Stats(media.KindGOP)
	if st.Hits+st.Misses == 0 {
		t.Error("cache saw no lookups")
	}
}

// defaultGOPCacheBudget is how the executor sized an unset GOP cache
// budget from the first plan it ran: enough for every live shard worker to
// hold its current source GOPs plus headroom for reuse across shards,
// clamped to [64MiB, 1GiB]. infos are the plan's sources; par is the
// run's resolved parallelism.
func defaultGOPCacheBudget(infos []container.StreamInfo, par int) int64 {
	var maxGOP int64
	for _, info := range infos {
		gop := info.GOP
		if gop <= 0 {
			gop = 48
		}
		b := int64(gop) * int64(frame.FormatYUV420.Size(info.Width, info.Height))
		if b > maxGOP {
			maxGOP = b
		}
	}
	mult := int64(par) * int64(media.DefaultCursorsPerVideo) * 3 / 2
	if mult < 8 {
		mult = 8
	}
	budget := maxGOP * mult
	const lo, hi = 64 << 20, 1 << 30
	if budget < lo {
		return lo
	}
	if budget > hi {
		return hi
	}
	return budget
}

// A zero GOP share is sized at construction from the parallelism alone,
// and never below what the executor used to size from a plan over any
// bundled source profile — so a workload the old sizing fitted still
// fits — nor above the old 1 GiB clamp.
func TestDefaultGOPShareCoversPlanSizing(t *testing.T) {
	for _, prof := range []dataset.Profile{dataset.ToSProfile(), dataset.KABRProfile(), dataset.TinyProfile()} {
		infos := []container.StreamInfo{prof.StreamInfo()}
		for _, par := range []int{1, 2, 4, 8} {
			got := media.NewCache(0, -1, par).BudgetStats().Total
			if want := defaultGOPCacheBudget(infos, par); got < want || got > 1<<30 {
				t.Errorf("%s at parallelism %d: default GOP share %d, want in [%d, %d]", prof.Name, par, got, want, 1<<30)
			}
		}
	}
}

// TestRollForwardEstimateMatchesDecodes is the cost model's account of a
// cut: with the GOP cache off, each shard decodes its frames once per tap
// plus exactly the roll-forward the plan states for its first frame —
// which is what EXPLAIN prints, what EstimateCost adds (so what admission
// weighs), and what the shard pass prices a cut by. The shapes are the
// benchmark's on both dataset geometries: a blur of one source and a grid
// of four taps — four videos at one offset where GOPs are a second (KABR),
// one video at four offsets where they are ten (ToS), more than a GOP
// apart and, as in the benchmark's grid, seven seconds apart so that taps
// share a GOP — plus a read that crosses a keyframe and taps of two
// geometries.
func TestRollForwardEstimateMatchesDecodes(t *testing.T) {
	for name, body := range map[string]string{
		"1 s GOPs, blur":             `render(t) = blur(v[t + 7/24], 1.0);`,
		"1 s GOPs, grid":             `render(t) = grid(v[t + 7/24], v1[t + 7/24], v2[t + 7/24], v3[t + 7/24]);`,
		"10 s GOPs, blur":            `render(t) = blur(s[t + 1/2], 1.0);`,
		"10 s GOPs, grid":            `render(t) = grid(s[t + 1/2], s[t + 11], s[t + 43/2], s[t + 32]);`,
		"10 s GOPs, grid 7 s apart":  `render(t) = grid(s[t + 55/24], s[t + 223/24], s[t + 391/24], s[t + 559/24]);`,
		"10 s GOPs, keyframe inside": `render(t) = blur(s[t + 9], 1.0);`,
		"two taps, two geometries":   `render(t) = crossfade(v[t + 7/24], s[t + 1/2], 0.5);`,
	} {
		t.Run(name, func(t *testing.T) {
			p := buildPlanSrc(t, fmt.Sprintf(`
				timedomain range(0, 3, 1/24);
				videos { v: %q; v1: %q; v2: %q; v3: %q; s: %q; }
				%s`, fxVid, fxMore[0], fxMore[1], fxMore[2], fxSparse, body), true)
			// A cut of the test's own, mid-GOP for every source: the account
			// holds wherever a cut is, not only where the optimizer puts one.
			s := p.Segments[0]
			s.Cuts = []int{31}
			bounds := s.Bounds()
			_, m := streamPackets(t, p, Options{Parallelism: 2})
			act := m.Segments[0]
			if act.Shards != 2 || len(act.ShardDecodes) != 2 {
				t.Fatalf("actuals report %d shards, decodes %v", act.Shards, act.ShardDecodes)
			}
			taps, roll := int64(len(s.Taps())), s.RollForward(p)
			for i, lo := range bounds[:2] {
				if want := int64(bounds[i+1]-lo)*taps + roll(lo); act.ShardDecodes[i] != want {
					t.Errorf("shard [%d,%d) decoded %d frames, plan says %d frames x %d taps + %d roll-forward",
						lo, bounds[i+1], act.ShardDecodes[i], bounds[i+1]-lo, taps, roll(lo))
				}
			}
			if est := s.EstimateCost(p).DecodeFrames; est != m.TotalDecodes() {
				t.Errorf("estimated %d decodes, run performed %d", est, m.TotalDecodes())
			}
		})
	}
}

// stampWriter records when each Write happened, padded so write spacing
// dwarfs clock noise.
type stampWriter struct {
	t0     time.Time
	d      time.Duration
	mu     sync.Mutex
	stamps []time.Duration
}

func (w *stampWriter) Write(p []byte) (int, error) {
	time.Sleep(w.d)
	w.mu.Lock()
	w.stamps = append(w.stamps, time.Since(w.t0))
	w.mu.Unlock()
	return len(p), nil
}

// FirstOutput must be stamped on the first delivered packet, not after a
// whole shard chunk: counting sink writes that completed before the stamp
// separates the two regardless of render speed. The first packet lands
// within a handful of writes (3 header writes + 2 per packet); a whole
// 24-frame chunk takes ~50.
func TestFirstOutputStampedPerPacketNotPerChunk(t *testing.T) {
	p := buildPlan(t, `render(t) = grade(v[t], 5, 1.0, 1.0);`, false)
	setShards(p, 2)
	w := &stampWriter{t0: time.Now(), d: 2 * time.Millisecond}
	sink, err := media.NewStreamWriter(w, p.Checked.Output)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExecuteTo(context.Background(), p, sink, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.FirstOutput <= 0 {
		t.Fatal("FirstOutput not stamped")
	}
	// FirstOutput is measured from ExecuteTo entry, our stamps from before
	// it — the skew only shrinks the count, never inflates it.
	writesBefore := 0
	for _, s := range w.stamps {
		if s <= m.FirstOutput {
			writesBefore++
		}
	}
	if total := len(w.stamps); writesBefore > 10 {
		t.Errorf("FirstOutput %v stamped after %d of %d sink writes, want within the first packet (<= 10)",
			m.FirstOutput, writesBefore, total)
	}
}
