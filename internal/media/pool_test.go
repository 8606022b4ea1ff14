package media

import (
	"context"
	"os"
	"sync"
	"testing"

	"v2v/internal/container"
	"v2v/internal/frame"
	"v2v/internal/obs"
	"v2v/internal/rational"
)

// liveFrames reads the process-wide count of pooled frames checked out.
func liveFrames() int {
	return int(obs.Default().Gauge("v2v_frame_pool_live_frames", "").Value())
}

// residentFrames counts the frames a cache currently holds references to.
func residentFrames(c *Cache) int {
	n := 0
	for _, e := range c.Entries(KindGOP) {
		n += e.Frames
	}
	return n
}

// tapRun reads two interleaved taps (t and t+1s) of 24 output frames
// through a fresh cursor pool over cache, releasing every frame it is
// handed, and closes the pool.
func tapRun(t *testing.T, path string, cache *Cache) {
	c := NewCursors(map[string]string{"v": path}, 4)
	c.SetCache(context.Background(), cache)
	defer c.Close()
	for i := 0; i < 24; i++ {
		for tap, off := range []int64{0, 24} {
			fr, err := c.FrameAt("v", rational.New(int64(i)+off, 24))
			if err != nil {
				t.Error(err)
				return
			}
			if id, _ := frame.ReadStamp(fr); id != uint32(int64(i)+off) {
				t.Errorf("tap %d frame %d: stamp %d", tap, i, id)
			}
			fr.Release()
		}
	}
}

// TestSourceFramePoolBalance: source frames are pooled and every holder
// releases what it took. After cursor runs through a cache too small for
// the streams they read — so GOPs are evicted while other readers hold
// frames from them — the only pooled frames still checked out are the
// ones resident in the cache: readers, decoders, fills and callers hold
// zero.
func TestSourceFramePoolBalance(t *testing.T) {
	info := testInfo(6)
	path := makeVideo(t, t.TempDir(), "a.vmf", info, 48) // 8 GOPs of 6
	gopBytes := int64(6 * frame.FormatYUV420.Size(info.Width, info.Height))

	t.Run("one pool", func(t *testing.T) {
		before := liveFrames()
		cache := NewCache(2*gopBytes, -1, 1)
		tapRun(t, path, cache)
		st := cache.Stats(KindGOP)
		if st.Evictions == 0 {
			t.Fatalf("cache never evicted (%+v); the test needs eviction under read", st)
		}
		if got, want := liveFrames()-before, residentFrames(cache); got != want {
			t.Errorf("%d pooled frames still live, want the %d resident in the cache", got, want)
		}
	})

	// Two pools on two goroutines share one cache: fills, singleflight
	// waits, hits and evictions interleave. Meaningful under -race.
	t.Run("two pools one cache", func(t *testing.T) {
		before := liveFrames()
		cache := NewCache(2*gopBytes, -1, 1)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					tapRun(t, path, cache)
				}
			}()
		}
		wg.Wait()
		if st := cache.Stats(KindGOP); st.Evictions == 0 {
			t.Fatalf("cache never evicted (%+v)", st)
		}
		if got, want := liveFrames()-before, residentFrames(cache); got != want {
			t.Errorf("%d pooled frames still live, want the %d resident in the cache", got, want)
		}
	})
}

// TestConcealHoldsOneGrayFrame: with the first keyframe damaged, every
// read up to the next keyframe is concealed with mid-gray. The reader
// builds that frame once, hands out references to it, and gives it back to
// the pool on Close.
func TestConcealHoldsOneGrayFrame(t *testing.T) {
	info := testInfo(6)
	path := makeVideo(t, t.TempDir(), "a.vmf", info, 12)
	cr, err := container.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := cr.Record(0)
	cr.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, rec.Offset+int64(rec.Size)/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	before := liveFrames()
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	r.SetConceal(true)
	work := obs.NewRecorder()
	r.SetRecorder(work)
	var gray *frame.Frame
	for i := 0; i < 6; i++ {
		fr, err := r.FrameAtIndex(i)
		if err != nil {
			t.Fatalf("concealed read %d: %v", i, err)
		}
		if gray == nil {
			gray = fr
		} else if fr != gray {
			t.Errorf("concealed read %d built a new stand-in frame", i)
		}
		for _, b := range fr.Pix {
			if b != 128 {
				t.Fatalf("concealed read %d is not mid-gray", i)
			}
		}
		fr.Release()
	}
	if got := work.Work().Concealed; got != 6 {
		t.Errorf("concealed %d packets, want 6", got)
	}
	// The next GOP is intact and decodes normally.
	fr, err := r.FrameAtIndex(6)
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := frame.ReadStamp(fr); id != 6 {
		t.Errorf("frame 6 stamp = %d", id)
	}
	fr.Release()
	r.Close()
	if got := liveFrames() - before; got != 0 {
		t.Errorf("%d pooled frames still live after Close, want 0", got)
	}
}
