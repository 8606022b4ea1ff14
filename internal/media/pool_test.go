package media

import (
	"context"
	"os"
	"sync"
	"testing"

	"v2v/internal/codec"
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
// through a fresh cursor pool over srcs and cache, releasing every frame
// it is handed, and closes the pool.
func tapRun(t *testing.T, srcs map[string]*container.Reader, cache *Cache) {
	c := NewCursors(srcs, 4)
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
	srcs := sourceV(t, makeVideo(t, t.TempDir(), "a.vmf", info, 48)) // 8 GOPs of 6
	gopBytes := int64(6 * frame.FormatYUV420.Size(info.Width, info.Height))

	t.Run("one pool", func(t *testing.T) {
		before := liveFrames()
		cache := NewCache(2*gopBytes, -1, 1)
		tapRun(t, srcs, cache)
		st := cache.Stats(KindGOP)
		if st.Evictions == 0 {
			t.Fatalf("cache never evicted (%+v); the test needs eviction under read", st)
		}
		if got, want := liveFrames()-before, residentFrames(cache); got != want {
			t.Errorf("%d pooled frames still live, want the %d resident in the cache", got, want)
		}
	})

	// Two pools on two goroutines share one cache and one container:
	// fills, singleflight waits, hits, evictions and packet reads
	// interleave. Meaningful under -race.
	t.Run("two pools one cache", func(t *testing.T) {
		before := liveFrames()
		cache := NewCache(2*gopBytes, -1, 1)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					tapRun(t, srcs, cache)
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
	damagePacket(t, path, 0)

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

// damagePacket overwrites four bytes in the middle of packet i, which the
// container's checksum then reports as corrupt.
func damagePacket(t *testing.T, path string, i int) {
	t.Helper()
	cr, err := container.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := cr.Record(i)
	cr.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, rec.Offset+int64(rec.Size)/2); err != nil {
		t.Fatal(err)
	}
}

// TestConcealDuringRollForward: a random-access read whose roll-forward
// from the keyframe crosses a damaged P-packet conceals that one packet
// and returns the target decoded against the last good reference — what
// a decoder fed the GOP without the damaged packet returns — not
// mid-gray. Reading the damaged packet itself holds the frame before it.
func TestConcealDuringRollForward(t *testing.T) {
	info := testInfo(6)
	path := makeVideo(t, t.TempDir(), "a.vmf", info, 12)
	const bad = 2
	damagePacket(t, path, bad)

	// The expected frames, from the intact packets of the first GOP.
	cr, err := container.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := codec.NewDecoder(codec.Config{Width: info.Width, Height: info.Height, Quality: info.Quality, GOP: info.GOP, Level: info.Level})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]*frame.Frame{}
	for i := 0; i < 5; i++ {
		data, err := cr.ReadPacket(i)
		if i == bad {
			if !Concealable(err) {
				t.Fatalf("packet %d: err = %v, want a concealable one", i, err)
			}
			want[i] = want[i-1]
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = dec.Decode(data); err != nil {
			t.Fatal(err)
		}
	}
	cr.Close()

	before := liveFrames()
	for _, target := range []int{4, bad} {
		r, err := OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		r.SetConceal(true)
		work := obs.NewRecorder()
		r.SetRecorder(work)
		fr, err := r.FrameAtIndex(target)
		if err != nil {
			t.Fatalf("FrameAtIndex(%d): %v", target, err)
		}
		if got := work.Work().Concealed; got != 1 {
			t.Errorf("FrameAtIndex(%d) concealed %d packets, want 1", target, got)
		}
		if got := work.Stage(obs.StageDecode).Frames; got != int64(target) {
			t.Errorf("FrameAtIndex(%d) decoded %d packets, want %d", target, got, target)
		}
		if !fr.Equal(want[target]) {
			t.Errorf("FrameAtIndex(%d) is not the frame decoded against the last good reference", target)
		}
		fr.Release()
		r.Close()
	}
	if got := liveFrames() - before; got != 0 {
		t.Errorf("%d pooled frames still live after Close, want 0", got)
	}
}

// TestFailedSeekServesNoStaleFrame: in fail-fast mode, a seek whose
// keyframe cannot be read fails, and the frame just before that keyframe
// is then decoded, not served from where the reader was before the seek.
func TestFailedSeekServesNoStaleFrame(t *testing.T) {
	path := makeVideo(t, t.TempDir(), "a.vmf", testInfo(6), 12)
	damagePacket(t, path, 6)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, i := range []int{3, 7, 5} {
		fr, err := r.FrameAtIndex(i)
		if i == 7 {
			if err == nil {
				t.Fatal("FrameAtIndex(7) read a damaged keyframe without error")
			}
			continue
		}
		if err != nil {
			t.Fatalf("FrameAtIndex(%d): %v", i, err)
		}
		if id, _ := frame.ReadStamp(fr); id != uint32(i) {
			t.Errorf("FrameAtIndex(%d) after a failed seek is frame %d", i, id)
		}
		fr.Release()
	}
}
