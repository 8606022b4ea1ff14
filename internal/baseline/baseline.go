// Package baseline implements the Python+OpenCV-equivalent engine the
// paper compares against in Fig. 5: a straightforward script that decodes
// every needed frame, applies the transforms frame-by-frame in memory, and
// encodes every output frame. No data-dependent rewrites, no stream
// copies, no operator merging decisions (a script is already "merged"),
// and no parallelism.
//
// The codec layer is shared with V2V — as in the paper, where both used
// FFmpeg for coding — so measured differences isolate engine behaviour:
// the work V2V's rewriter and optimizer skip.
package baseline

import (
	"fmt"
	"time"

	"v2v/internal/check"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/raster"
	"v2v/internal/rational"
	"v2v/internal/sqlmini"
	"v2v/internal/vql"
)

// Metrics reports the work the baseline run performed.
type Metrics struct {
	Wall time.Duration
	// Work is what the run's recorder counted: its decodes, filters and
	// encodes (a script copies nothing).
	Work           obs.Work
	FramesRendered int64
}

// Run synthesizes the spec naively and writes the output to outPath.
func Run(spec *vql.Spec, outPath string, db *sqlmini.DB) (*Metrics, error) {
	start := time.Now()
	// A script author still validates inputs; reuse the checker purely to
	// load sources/arrays and resolve the output format.
	c, err := check.Check(spec, check.Options{DB: db})
	if err != nil {
		return nil, err
	}
	srcs, err := c.OpenSources()
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, r := range srcs {
			r.Close()
		}
	}()
	info := c.Output
	info.Start = rational.Zero
	w, err := media.CreateWriter(outPath, info)
	if err != nil {
		return nil, err
	}
	m := &Metrics{}
	rec := obs.NewRecorder()
	w.SetRecorder(rec)
	env := &scriptEnv{cursors: media.NewCursors(srcs, 0)}
	env.cursors.SetRecorder(rec)
	defer env.cursors.Close()

	domain := spec.TimeDomain
	for i, n := 0, domain.Count(); i < n; i++ {
		at := domain.At(i)
		body := spec.RenderFor(at)
		if body == nil {
			err := fmt.Errorf("baseline: no render arm covers t=%s", at)
			w.Abort(err)
			return nil, err
		}
		v, err := vql.Eval(body, &vql.Env{T: at, Frames: env, Data: c.Arrays})
		if err == nil && (v.Type != vql.TypeFrame || v.Frame == nil) {
			err = fmt.Errorf("produced %v", v.Type)
		}
		if err == nil {
			fr := v.Frame
			if fr.W != info.Width || fr.H != info.Height {
				fr = raster.Scale(fr, info.Width, info.Height)
			}
			err = w.WriteFrame(fr)
		}
		// The source frames this output frame read (v.Frame may be one of
		// them) are encoded by now, or abandoned.
		for _, fr := range env.taps {
			fr.Release()
		}
		env.taps = env.taps[:0]
		if err != nil {
			err = fmt.Errorf("baseline: render t=%s: %w", at, err)
			w.Abort(err)
			return nil, err
		}
		m.FramesRendered++
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	m.Work = rec.Work()
	m.Wall = time.Since(start)
	return m, nil
}

// RunSource parses and runs a textual spec.
func RunSource(src, outPath string, db *sqlmini.DB) (*Metrics, error) {
	spec, err := vql.Parse(src)
	if err != nil {
		return nil, err
	}
	return Run(spec, outPath, db)
}

// scriptEnv provides frames to the evaluator the way a script would: one
// cv2.VideoCapture-style cursor per access pattern.
type scriptEnv struct {
	cursors *media.Cursors
	taps    []*frame.Frame // source frames read for the output frame in progress
}

// SourceFrame keeps the reference to each frame it hands the evaluator;
// Run drops them once the output frame is written.
func (e *scriptEnv) SourceFrame(video string, t rational.Rat) (*frame.Frame, error) {
	fr, err := e.cursors.FrameAt(video, t)
	if err == nil {
		e.taps = append(e.taps, fr)
	}
	return fr, err
}
