package benchkit

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"v2v/internal/codec"
	"v2v/internal/frame"
	"v2v/internal/raster"
)

// The pixels figure is the per-stage proof behind the fused-kernel and
// frame-pool work: plane throughput (MB/s) for each point op, a 3-op chain
// measured unfused (one full pass per op, each into a pooled frame)
// against fused (one pass, byte-identical by SHA), and the codec's
// per-frame encode/decode cost. Allocations per frame are counted for
// every stage — the point ops' ~0 is the zero-allocation render loop's
// steady state in isolation.

// PixelRow is one per-stage pixel-pipeline measurement.
type PixelRow struct {
	// Stage names the measured operation: "filter:grade",
	// "chain3:unfused", "chain3:fused", "codec:encode", "codec:decode".
	Stage  string
	Frames int
	Wall   time.Duration
	// MBPerSecond is plane throughput (frame bytes processed per second);
	// SecondsPerMB is its time-like inverse, the unit the delta reporter
	// compares (ratio > 1 is slower).
	MBPerSecond  float64
	SecondsPerMB float64
	// SecondsPerFrame is the per-frame latency of the stage.
	SecondsPerFrame float64
	// AllocsPerFrame is the heap allocation count per processed frame.
	AllocsPerFrame float64
	// Speedup (chain3:fused only) is unfused wall over fused wall on the
	// same 3-op chain; Identical confirms the two outputs' SHA-256 match.
	Speedup   float64
	Identical bool
}

// pixelDims picks the synthetic frame size: quick runs use a small frame,
// the paper-shaped scale a 720p one.
func pixelDims(sc Scale) (int, int) {
	if sc == FullScale() {
		return 1280, 720
	}
	return 640, 360
}

// synthPixelFrame builds a deterministic YUV420 frame; seed varies the
// content so codec P-frames carry real residuals.
func synthPixelFrame(w, h int, seed int) *frame.Frame {
	fr := frame.New(w, h, frame.FormatYUV420)
	for i := range fr.Pix {
		fr.Pix[i] = byte((i*7 + seed*31 + (i>>8)*seed) & 0xff)
	}
	return fr
}

// measurePixels runs op frames times after a short warm-up, returning the
// wall time and the exact heap-allocation count per iteration.
func measurePixels(frames int, op func(i int)) (time.Duration, float64) {
	for i := 0; i < frames/10+1; i++ {
		op(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < frames; i++ {
		op(i)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return wall, float64(m1.Mallocs-m0.Mallocs) / float64(frames)
}

func pixelRow(stage string, frames, frameBytes int, wall time.Duration, allocs float64) PixelRow {
	sec := seconds(wall)
	mb := float64(frameBytes) * float64(frames) / (1 << 20)
	return PixelRow{
		Stage:           stage,
		Frames:          frames,
		Wall:            wall,
		MBPerSecond:     mb / sec,
		SecondsPerMB:    sec / mb,
		SecondsPerFrame: sec / float64(frames),
		AllocsPerFrame:  allocs,
	}
}

// PixelsRun measures the per-stage pixel pipeline on synthetic frames: no
// dataset, no planner — just the raster kernels, the frame pool, and the
// codec, in isolation. It returns an error if the fused 3-op chain is not
// byte-identical to the unfused one.
func PixelsRun(cfg Config) ([]PixelRow, error) {
	w, h := pixelDims(cfg.Scale)
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	n := 96 * repeats
	frameBytes := frame.FormatYUV420.Size(w, h)

	src := synthPixelFrame(w, h, 1)
	other := synthPixelFrame(w, h, 2)
	overlayImg := raster.Scale(synthPixelFrame(w, h, 3), (w/4)&^1, (h/4)&^1)

	var rows []PixelRow

	// pass applies ops in one pass into a pooled destination, the way the
	// executor renders a point-op node; the caller releases the result.
	pool := frame.NewPool()
	pass := func(src *frame.Frame, ops ...raster.PointOp) *frame.Frame {
		dst := pool.Get(w, h, frame.FormatYUV420)
		raster.ApplyFused(dst, src, ops)
		return dst
	}

	// Individual point ops, one full pass each (the exec cost of one
	// unfused Filter node).
	singles := []struct {
		stage string
		op    raster.PointOp
	}{
		{"filter:grade", raster.GradeOp(10, 1.1, 0.9)},
		{"filter:crossfade", raster.CrossfadeOp(other, 0.4)},
		{"filter:wipe", raster.WipeOp(other, 0.6)},
		{"filter:overlay", raster.OverlayOp(overlayImg, 8, 8, 160)},
	}
	for _, s := range singles {
		wall, allocs := measurePixels(n, func(int) { pass(src, s.op).Release() })
		rows = append(rows, pixelRow(s.stage, n, frameBytes, wall, allocs))
	}

	// The 3-op point chain, unfused: three passes through two pooled
	// intermediates — exactly what exec pays per frame when kernel fusion
	// is off. The chain is the triple grade the fused-execution tests use
	// (grade(grade(grade(v[t], ...)))); each op does real work on every
	// byte, so the measurement isolates the cost of the extra passes.
	ops := []raster.PointOp{
		raster.GradeOp(10, 1.1, 1),
		raster.GradeOp(-5, 0.9, 1.2),
		raster.GradeOp(3, 1, 1.3),
	}
	chainUnfused := func() *frame.Frame {
		a := pass(src, ops[0])
		b := pass(a, ops[1])
		a.Release()
		c := pass(b, ops[2])
		b.Release()
		return c
	}
	uWall, uAllocs := measurePixels(n, func(int) { chainUnfused().Release() })
	unfusedRow := pixelRow("chain3:unfused", n, frameBytes, uWall, uAllocs)
	rows = append(rows, unfusedRow)

	// The same chain fused: one pass per frame into a pooled destination
	// the loop releases — the steady-state render path.
	chainFused := func() *frame.Frame { return pass(src, ops...) }
	fWall, fAllocs := measurePixels(n, func(int) { chainFused().Release() })
	fusedRow := pixelRow("chain3:fused", n, frameBytes, fWall, fAllocs)
	fusedRow.Speedup = unfusedRow.SecondsPerFrame / fusedRow.SecondsPerFrame

	uOut, fOut := chainUnfused(), chainFused()
	fusedRow.Identical = bytes.Equal(uOut.Pix, fOut.Pix)
	uOut.Release()
	fOut.Release()
	if !fusedRow.Identical {
		return nil, fmt.Errorf("benchkit: fused 3-op chain output differs from unfused (%dx%d)", w, h)
	}
	rows = append(rows, fusedRow)

	// Codec stages: encode distinct frames (real P-frame residuals), then
	// decode the recorded packets.
	ring := make([]*frame.Frame, 16)
	for i := range ring {
		ring[i] = synthPixelFrame(w, h, 11+i)
	}
	enc, err := codec.NewEncoder(codec.Config{Width: w, Height: h})
	if err != nil {
		return nil, fmt.Errorf("benchkit: pixels encoder: %w", err)
	}
	var pkts [][]byte
	eWall, eAllocs := measurePixels(n, func(i int) {
		pkt, err := enc.Encode(ring[i%len(ring)])
		if err != nil {
			panic(err)
		}
		if len(pkts) < n {
			pkts = append(pkts, pkt.Data)
		} else {
			enc.Recycle(pkt)
		}
	})
	rows = append(rows, pixelRow("codec:encode", n, frameBytes, eWall, eAllocs))

	dec, err := codec.NewDecoder(codec.Config{Width: w, Height: h})
	if err != nil {
		return nil, fmt.Errorf("benchkit: pixels decoder: %w", err)
	}
	dec.SetFramePool(pool)
	defer dec.Reset()
	dWall, dAllocs := measurePixels(len(pkts), func(i int) {
		fr, err := dec.Decode(pkts[i%len(pkts)])
		if err != nil {
			panic(err)
		}
		fr.Release()
	})
	rows = append(rows, pixelRow("codec:decode", len(pkts), frameBytes, dWall, dAllocs))

	return rows, nil
}

// FormatPixels renders the pixel-pipeline rows as an aligned text table.
func FormatPixels(title string, rows []PixelRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-16s %7s %10s %9s %10s %13s %8s\n",
		"Stage", "Frames", "Wall", "MB/s", "s/frame", "allocs/frame", "Speedup")
	for _, r := range rows {
		speedup := ""
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%6.2fx", r.Speedup)
			if r.Identical {
				speedup += " ="
			}
		}
		fmt.Fprintf(&sb, "%-16s %7d %10s %9.1f %10s %13.2f %8s\n",
			r.Stage, r.Frames, fmtDur(r.Wall), r.MBPerSecond,
			fmtDur(time.Duration(r.SecondsPerFrame*float64(time.Second))), r.AllocsPerFrame, speedup)
	}
	return sb.String()
}
