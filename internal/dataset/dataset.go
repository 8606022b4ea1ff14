// Package dataset generates the synthetic evaluation datasets standing in
// for the paper's Tears of Steel (ToS) and KABR drone footage.
//
// Full 4K source material is pointless for reproducing the optimizer's
// behaviour; what matters is the structure the optimizer exploits, which
// the generators preserve:
//
//   - ToS-sim: film-like content at 24 fps with a sparse keyframe interval
//     (10 s GOP, as the paper observed: "insufficient keyframes over the
//     clipped region to apply a smart cut") and synthetic objects on nearly
//     every frame (which neutralizes the data-aware BoundingBox rewrite).
//   - KABR-sim: drone-like content at 30 fps with keyframes every second
//     (enabling smart cuts) and objects visible only occasionally (which
//     lets the rewriter stream-copy long object-free stretches).
//
// Every generated frame carries a frame.Stamp of its index, and object
// annotations are emitted in the data-array JSON format, so tests can
// verify edits frame-exactly against ground truth.
package dataset

import (
	"fmt"
	"math"

	"v2v/internal/container"
	"v2v/internal/data"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/raster"
	"v2v/internal/rational"
)

// Profile parameterizes a synthetic dataset.
type Profile struct {
	Name   string
	Width  int
	Height int
	FPS    rational.Rat
	// GOPSeconds is the keyframe interval in seconds.
	GOPSeconds rational.Rat
	Quality    int
	// Objects is the number of wandering objects in the scene.
	Objects int
	// ObjectClass labels emitted annotations.
	ObjectClass string
	// VisibleEvery and VisibleFor shape object visibility: objects appear
	// for VisibleFor seconds out of every VisibleEvery seconds. With
	// VisibleEvery == VisibleFor objects are always visible.
	VisibleEvery float64
	VisibleFor   float64
	Seed         int64
}

// ToSProfile mimics Tears of Steel structure at a reduced resolution:
// 24 fps, 10-second GOPs, objects on (nearly) every frame.
func ToSProfile() Profile {
	return Profile{
		Name: "tos-sim", Width: 384, Height: 172, FPS: rational.FromInt(24),
		GOPSeconds: rational.FromInt(10), Quality: 1,
		Objects: 3, ObjectClass: "ACTOR",
		VisibleEvery: 1, VisibleFor: 1, Seed: 101,
	}
}

// KABRProfile mimics the KABR drone videos: 30 fps, 1-second GOPs, objects
// visible only in short bursts.
func KABRProfile() Profile {
	return Profile{
		Name: "kabr-sim", Width: 384, Height: 216, FPS: rational.FromInt(30),
		GOPSeconds: rational.One, Quality: 1,
		Objects: 2, ObjectClass: "ZEBRA",
		VisibleEvery: 10, VisibleFor: 1.5, Seed: 202,
	}
}

// TinyProfile is a fast profile for unit tests: 24 fps, 1-second GOPs,
// small frames, objects visible half the time.
func TinyProfile() Profile {
	return Profile{
		Name: "tiny", Width: 160, Height: 96, FPS: rational.FromInt(24),
		GOPSeconds: rational.One, Quality: 1,
		Objects: 1, ObjectClass: "OBJ",
		VisibleEvery: 2, VisibleFor: 1, Seed: 7,
	}
}

// StreamInfo returns the container stream info the profile encodes to.
func (p Profile) StreamInfo() container.StreamInfo {
	return container.StreamInfo{
		Codec: "GV10", Width: p.Width, Height: p.Height, FPS: p.FPS,
		Quality: p.Quality, GOP: p.GOPFrames(),
	}
}

// GOPFrames returns the keyframe interval in frames.
func (p Profile) GOPFrames() int {
	g := int(p.GOPSeconds.Mul(p.FPS).Floor())
	if g < 1 {
		g = 1
	}
	return g
}

// Validate reports whether the profile is generatable.
func (p Profile) Validate() error {
	if p.Width < frame.StampWidth() || p.Height < frame.StampHeight() {
		return fmt.Errorf("dataset: %dx%d too small for frame stamps (need >= %dx%d)",
			p.Width, p.Height, frame.StampWidth(), frame.StampHeight())
	}
	if p.FPS.Sign() <= 0 || p.GOPSeconds.Sign() <= 0 {
		return fmt.Errorf("dataset: fps and GOP must be positive")
	}
	if p.VisibleEvery <= 0 || p.VisibleFor <= 0 {
		return fmt.Errorf("dataset: visibility windows must be positive")
	}
	return nil
}

// object is one wandering scene object.
type object struct {
	track int
	w, h  int
	phase float64
	speed float64
}

// objectsAt returns the boxes visible at frame index i.
func (p Profile) objectsAt(i int) []raster.Box {
	tSec := float64(i) / p.FPS.Float()
	// Visibility window: objects appear in the first VisibleFor seconds of
	// every VisibleEvery-second window (offset per profile seed).
	inWindow := math.Mod(tSec+float64(p.Seed%5), p.VisibleEvery) < p.VisibleFor
	if !inWindow {
		return nil
	}
	boxes := make([]raster.Box, 0, p.Objects)
	for k := 0; k < p.Objects; k++ {
		ob := object{
			track: k + 1,
			w:     p.Width / 8,
			h:     p.Height / 8,
			phase: float64(p.Seed+int64(k)*37) * 0.61,
			speed: 0.35 + 0.13*float64(k),
		}
		cx := 0.5 + 0.35*math.Sin(ob.speed*tSec+ob.phase)
		cy := 0.5 + 0.3*math.Cos(ob.speed*1.3*tSec+ob.phase*1.7)
		x := int(cx*float64(p.Width)) - ob.w/2
		y := int(cy*float64(p.Height)) - ob.h/2
		boxes = append(boxes, raster.Box{
			X: x, Y: y, W: ob.w, H: ob.h,
			Class: p.ObjectClass, Track: ob.track,
		})
	}
	return boxes
}

// RenderFrame procedurally renders frame index i (before stamping).
func (p Profile) RenderFrame(i int) *frame.Frame {
	fr := frame.New(p.Width, p.Height, frame.FormatYUV420)
	pl := fr.Planes()
	// Slowly drifting diagonal gradient background with a per-profile
	// texture; temporally coherent so P-frames stay small.
	drift := i / 2
	seedByte := int(p.Seed % 64)
	for y := 0; y < p.Height; y++ {
		row := pl[0][y*p.Width:]
		for x := 0; x < p.Width; x++ {
			row[x] = byte(seedByte + ((x + drift) / 3 & 0x1F) + ((y + drift/2) / 3 & 0x1F) + ((x^y)&7)*2)
		}
	}
	cw := p.Width / 2
	for y := 0; y < p.Height/2; y++ {
		for x := 0; x < cw; x++ {
			pl[1][y*cw+x] = byte(110 + ((x + drift/4) & 15))
			pl[2][y*cw+x] = byte(130 + ((y + drift/4) & 15))
		}
	}
	// Objects: bright textured rectangles.
	for _, b := range p.objectsAt(i) {
		raster.FillRect(fr, raster.Rect{X: b.X, Y: b.Y, W: b.W, H: b.H}, raster.Color{Y: 220, Cb: 90, Cr: 150})
		raster.DrawRect(fr, raster.Rect{X: b.X, Y: b.Y, W: b.W, H: b.H}, 2, raster.Color{Y: 30, Cb: 128, Cr: 128})
	}
	frame.Stamp(fr, uint32(i))
	return fr
}

// Generate writes duration seconds of synthetic video to path and the
// matching object annotations (data-array JSON) to annPath (skipped when
// annPath is empty). It returns the number of frames written.
func Generate(path, annPath string, p Profile, duration rational.Rat) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	n := int(duration.Mul(p.FPS).Floor())
	if n <= 0 {
		return 0, fmt.Errorf("dataset: duration %s yields no frames", duration)
	}
	w, err := media.CreateWriter(path, p.StreamInfo())
	if err != nil {
		return 0, err
	}
	var entries []data.Entry
	frameDur := rational.One.Div(p.FPS)
	for i := 0; i < n; i++ {
		if err := w.WriteFrame(p.RenderFrame(i)); err != nil {
			w.Close()
			return 0, err
		}
		if annPath != "" {
			entries = append(entries, data.Entry{
				T: frameDur.Mul(rational.FromInt(int64(i))),
				V: data.BoxesVal(p.objectsAt(i)),
			})
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	if annPath != "" {
		arr, err := data.NewArray(entries)
		if err != nil {
			return 0, err
		}
		if err := arr.SaveJSON(annPath); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Annotations computes the ground-truth annotation array for n frames
// without touching disk (used by tests and the SQL loader).
func Annotations(p Profile, n int) (*data.Array, error) {
	frameDur := rational.One.Div(p.FPS)
	entries := make([]data.Entry, n)
	for i := 0; i < n; i++ {
		entries[i] = data.Entry{
			T: frameDur.Mul(rational.FromInt(int64(i))),
			V: data.BoxesVal(p.objectsAt(i)),
		}
	}
	return data.NewArray(entries)
}
