package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"v2v/internal/admit"
	"v2v/internal/codec"
	"v2v/internal/container"
	"v2v/internal/data"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/raster"
)

// runProbes times single calls into the layers under the engine — codec,
// raster kernels, frame pool, container, media primitives, admission —
// on frames and packets taken from the KABR dataset. Each probe makes
// calls calls and reports their median, so one slow call (a GC cycle, a
// scheduler hiccup) does not move it. Probes tell a reviewer which kernel
// moved when an end-to-end metric did; they gate nothing.
func runProbes(ctx context.Context, ds *datasets, calls int) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	src := ds.KABR[0]
	// timed runs f calls times and records the median duration in the
	// metric's unit (scale converts nanoseconds). The first failure is
	// kept and every later probe skipped.
	var failed error
	timed := func(name string, scale float64, f func(i int) error) {
		if failed != nil {
			return
		}
		samples := make([]float64, calls)
		for i := range samples {
			start := time.Now()
			if err := f(i); err != nil {
				failed = fmt.Errorf("probe %s: %w", name, err)
				return
			}
			samples[i] = float64(time.Since(start).Nanoseconds()) / scale
		}
		out[name] = reduced(median(samples), layerUnit(name), samples)
	}
	const us, ms = 1e3, 1e6

	// Container: open (header, index, content-ID hash) and packet reads.
	timed("container.open_us", us, func(int) error {
		c, err := container.Open(src.Video)
		if err != nil {
			return err
		}
		return c.Close()
	})
	c, err := container.Open(src.Video)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	info := c.Info()
	n := c.NumPackets()
	packets := make([][]byte, n)
	var packetBytes float64
	start := time.Now()
	for i := range packets {
		if packets[i], err = c.ReadPacket(i); err != nil {
			return nil, err
		}
		packetBytes += float64(len(packets[i]))
	}
	out["container.read_mb_per_s"] = single(packetBytes/(1<<20)/time.Since(start).Seconds(), layerUnit("container.read_mb_per_s"))
	out["codec.bytes_per_frame"] = single(packetBytes/float64(n), layerUnit("codec.bytes_per_frame"))

	// Codec: decode the stream in order, then encode the decoded frames.
	cfg := codec.Config{Width: info.Width, Height: info.Height, Quality: info.Quality, GOP: info.GOP, Level: info.Level}
	dec, err := codec.NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	frames := make([]*frame.Frame, 0, n)
	timed("codec.decode_us_per_frame", us, func(i int) error {
		if i%n == 0 {
			dec.Reset()
		}
		fr, err := dec.Decode(packets[i%n])
		if len(frames) < n {
			frames = append(frames, fr)
		}
		return err
	})
	at := func(i int) *frame.Frame { return frames[i%len(frames)] }
	timed("codec.encode_us_per_frame", us, func(i int) error {
		pkt, err := enc.Encode(at(i))
		enc.Recycle(pkt)
		return err
	})

	// Raster kernels the paper queries run: blur (Q4/Q9), 2x2 grid
	// (Q3/Q8), bounding boxes (Q5/Q10), and the scale inside grid.
	boxes := []raster.Box{{X: 40, Y: 30, W: 48, H: 27, Class: "ZEBRA", Track: 1}, {X: 200, Y: 100, W: 48, H: 27, Class: "ZEBRA", Track: 2}}
	pool := frame.NewPool()
	pool.Get(info.Width, info.Height, frame.FormatYUV420).Release()
	for _, k := range []struct {
		name  string
		scale float64
		f     func(i int)
	}{
		{"raster.blur_us_per_frame", us, func(i int) { raster.GaussianBlur(at(i), 1.5) }},
		{"raster.grid_us_per_frame", us, func(i int) { raster.Grid2x2(at(i), at(i+1), at(i+2), at(i+3)) }},
		{"raster.boxes_us_per_frame", us, func(i int) { raster.BoundingBoxes(at(i), boxes) }},
		{"raster.scale_us_per_frame", us, func(i int) { raster.Scale(at(i), info.Width/2, info.Height/2) }},
		{"frame.pool_get_ns", 1, func(int) { pool.Get(info.Width, info.Height, frame.FormatYUV420).Release() }},
	} {
		k := k
		timed(k.name, k.scale, func(i int) error { k.f(i); return nil })
	}

	// Media primitives: packet copy, smart cut of a 2 s range that starts
	// mid-GOP, and random access cold (seek + roll forward from the
	// keyframe) against warm (the next frame in sequence).
	r, err := media.OpenReader(src.Video)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	span := shortSeconds * src.FPS
	cut := func(i0 int, f func(sink media.Sink, i0, i1 int) error) error {
		sink, err := media.NewStreamWriter(io.Discard, info)
		if err != nil {
			return err
		}
		return f(sink, i0, i0+span)
	}
	timed("media.copyrange_us_per_packet", us*float64(span), func(i int) error {
		return cut((i%8)*src.GOP, func(sink media.Sink, i0, i1 int) error { return media.CopyRange(sink, r, i0, i1) })
	})
	timed("media.smartcut_ms", ms, func(i int) error {
		return cut((i%8)*src.GOP+src.GOP/2, func(sink media.Sink, i0, i1 int) error {
			_, _, err := media.SmartCut(sink, r, i0, i1)
			return err
		})
	})
	timed("media.frameat_cold_us", us, func(i int) error {
		// Alternate between two distant GOPs, landing mid-GOP each time.
		_, err := r.FrameAtIndex((i%2)*5*src.GOP + src.GOP/2 + i%7)
		return err
	})
	if _, err := r.FrameAtIndex(0); err != nil {
		return nil, err
	}
	timed("media.frameat_warm_us", us, func(i int) error {
		_, err := r.FrameAtIndex(1 + i%(n-1))
		return err
	})

	// Admission: an uncontended acquire and release.
	ctl := admit.NewController(admit.Config{})
	defer ctl.Close()
	timed("admit.acquire_release_us", us, func(int) error {
		t, err := ctl.Acquire(ctx, admit.Request{Cost: 1})
		if err != nil {
			return err
		}
		t.Release(nil)
		return nil
	})

	// Data arrays: loading one annotation file, as check does per spec.
	timed("data.load_ms", ms, func(int) error {
		_, err := data.LoadJSON(src.Ann)
		return err
	})
	return out, failed
}
