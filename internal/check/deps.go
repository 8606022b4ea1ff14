package check

import (
	"fmt"
	"slices"

	"v2v/internal/container"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

// AffineOffset recognizes index expressions of the form t + c (including
// t, c + t, t - c) and returns c. Affine indexes admit interval-level
// dependency analysis; anything else falls back to per-sample evaluation.
func AffineOffset(e vql.Expr) (rational.Rat, bool) {
	switch n := e.(type) {
	case vql.TimeVar:
		return rational.Zero, true
	case vql.BinOp:
		switch n.Op {
		case vql.OpAdd:
			if _, isT := n.L.(vql.TimeVar); isT {
				if c, ok := n.R.(vql.NumLit); ok {
					return c.V, true
				}
			}
			if _, isT := n.R.(vql.TimeVar); isT {
				if c, ok := n.L.(vql.NumLit); ok {
					return c.V, true
				}
			}
		case vql.OpSub:
			if _, isT := n.L.(vql.TimeVar); isT {
				if c, ok := n.R.(vql.NumLit); ok {
					return c.V.Neg(), true
				}
			}
		}
	}
	return rational.Rat{}, false
}

// sqlWindow computes the half-open interval of times the spec can read
// from the named data array, when every reference's index is affine in t.
// Non-affine indexes (or none at all) return the empty Interval, which
// materializes the whole array.
func sqlWindow(spec *vql.Spec, name string) rational.Interval {
	domain := spec.TimeDomain
	if domain.Count() == 0 {
		return rational.Interval{}
	}
	found := false
	allAffine := true
	var lo, hi rational.Rat
	vql.Walk(spec.Render, func(e vql.Expr) {
		dr, ok := e.(vql.DataRef)
		if !ok || dr.Name != name {
			return
		}
		off, affine := AffineOffset(dr.Index)
		if !affine {
			allAffine = false
			return
		}
		a := domain.Start.Add(off)
		b := domain.Last().Add(off)
		if !found {
			lo, hi = a, b
			found = true
			return
		}
		lo = lo.Min(a)
		hi = hi.Max(b)
	})
	if !found || !allAffine {
		return rational.Interval{}
	}
	return rational.Interval{Lo: lo, Hi: hi.Add(domain.Step)}
}

// analyzeDependencies walks the time domain, verifies match coverage and
// frame-grid alignment of every video read, and accumulates per-video
// dependency sets.
func (c *Checked) analyzeDependencies() error {
	spec := c.Spec
	domain := spec.TimeDomain
	n := domain.Count()

	// Per-video accumulated times, as half-open frame intervals.
	acc := make(map[string][]rational.Interval)
	// Track which (video, guard-arm) pairs took the affine fast path so we
	// do not enumerate them.
	type refKey struct {
		video  string
		offset string
	}
	fastDone := make(map[refKey]bool)

	process := func(body vql.Expr, times rational.Range) error {
		if times.Count() == 0 {
			return nil
		}
		// Collect video references in this body.
		var refs []vql.VideoRef
		vql.Walk(body, func(e vql.Expr) {
			if vr, ok := e.(vql.VideoRef); ok {
				refs = append(refs, vr)
			}
		})
		var dataRefs []vql.DataRef
		vql.Walk(body, func(e vql.Expr) {
			if dr, ok := e.(vql.DataRef); ok {
				dataRefs = append(dataRefs, dr)
			}
		})
		for _, vr := range refs {
			src := c.Sources[vr.Name]
			if off, ok := AffineOffset(vr.Index); ok {
				key := refKey{vr.Name, off.String() + "@" + times.String()}
				if fastDone[key] {
					continue
				}
				fastDone[key] = true
				// The read times are times shifted by off. Validate grid
				// alignment once (all samples share the same phase iff the
				// domain step is a multiple of the frame duration).
				if err := validateGrid(src, vr.Name, times, off); err != nil {
					return err
				}
				shifted := times.Shift(off)
				iv := shifted.Interval()
				iv.Hi = shifted.Last().Add(src.Info().FrameDur()) // extent of last frame read
				acc[vr.Name] = append(acc[vr.Name], iv)
				continue
			}
			// General path: evaluate the index at every covered time.
			for i := 0; i < times.Count(); i++ {
				at := times.At(i)
				v, err := vql.Eval(vr.Index, &vql.Env{T: at})
				if err != nil {
					return fmt.Errorf("check: index of %q at t=%s: %w", vr.Name, at, err)
				}
				rt := v.Num
				if _, exact := src.Info().PTSOf(rt); !exact {
					return fmt.Errorf("check: %s[%s] at t=%s is not on the video's frame grid (fps %s)",
						vr.Name, rt, at, src.Info().FPS)
				}
				acc[vr.Name] = append(acc[vr.Name], rational.Interval{Lo: rt, Hi: rt.Add(src.Info().FrameDur())})
			}
		}
		// Data dependencies: every sample read must exist.
		for _, dr := range dataRefs {
			arr := c.Arrays[dr.Name]
			for i := 0; i < times.Count(); i++ {
				at := times.At(i)
				v, err := vql.Eval(dr.Index, &vql.Env{T: at})
				if err != nil {
					return fmt.Errorf("check: index of %q at t=%s: %w", dr.Name, at, err)
				}
				if _, ok := arr.At(v.Num); !ok {
					return fmt.Errorf("check: data array %q has no sample at %s (needed for t=%s)", dr.Name, v.Num, at)
				}
			}
		}
		return nil
	}

	if m, ok := spec.Render.(vql.Match); ok {
		// Coverage: every domain time matches some arm; collect the
		// contiguous sub-ranges each arm wins to keep the fast path usable.
		armStart := -1
		armIdx := -1
		flush := func(endExclusive int) error {
			if armIdx < 0 || armStart < 0 {
				return nil
			}
			sub := rational.NewRange(domain.At(armStart), domain.At(endExclusive-1).Add(domain.Step), domain.Step)
			return process(m.Arms[armIdx].Body, sub)
		}
		for i := 0; i < n; i++ {
			at := domain.At(i)
			matched := -1
			for ai, arm := range m.Arms {
				if arm.Guard.Contains(at) {
					matched = ai
					break
				}
			}
			if matched == -1 {
				return fmt.Errorf("check: match does not cover t=%s", at)
			}
			if matched != armIdx {
				if err := flush(i); err != nil {
					return err
				}
				armIdx, armStart = matched, i
			}
		}
		if err := flush(n); err != nil {
			return err
		}
	} else {
		if err := process(spec.Render, domain); err != nil {
			return err
		}
	}

	// Normalize and subset-check against the sources.
	for name, ivs := range acc {
		set := rational.NewRangeSet(ivs...)
		c.Deps[name] = set
		src := c.Sources[name]
		avail := rational.NewRangeSet(src.TimeRange())
		if !set.SubsetOf(avail) {
			missing := set.Subtract(avail)
			return fmt.Errorf("check: spec needs %s of video %q but the file only covers %s",
				missing, name, src.TimeRange())
		}
	}
	return nil
}

// validateGrid confirms that every read time of an affine reference lands
// exactly on a source frame. With an affine offset it suffices to check the
// first sample's phase and that the domain step is an integer number of
// source frames; otherwise fall back to checking each sample.
func validateGrid(src Source, name string, times rational.Range, off rational.Rat) error {
	stepFrames := times.Step.Mul(src.Info().FPS)
	first := times.Start.Add(off)
	if _, exact := src.Info().PTSOf(first); exact && stepFrames.IsInt() {
		return nil
	}
	for i := 0; i < times.Count(); i++ {
		rt := times.At(i).Add(off)
		if _, exact := src.Info().PTSOf(rt); !exact {
			return fmt.Errorf("check: %s[t%+s] at t=%s reads %s, which is not on the video's frame grid (fps %s)",
				name, off, times.At(i), rt, src.Info().FPS)
		}
	}
	return nil
}

// resolveOutput determines the output stream format.
func (c *Checked) resolveOutput() error {
	if c.Spec.Output != nil {
		o := c.Spec.Output
		if o.Width <= 0 || o.Height <= 0 || o.Width%2 != 0 || o.Height%2 != 0 {
			return fmt.Errorf("check: output dimensions %dx%d must be positive and even", o.Width, o.Height)
		}
		if o.FPS.Sign() <= 0 {
			return fmt.Errorf("check: output fps must be positive")
		}
		c.Output = container.StreamInfo{
			Codec: "GV10", Width: o.Width, Height: o.Height, FPS: o.FPS,
			Quality: o.Quality, GOP: o.GOP,
		}
		c.Passthrough = false
		return nil
	}
	// Inherit the common source format, taken from the lexically first
	// video, so the fields Mismatch ignores (GOP, Level) do not depend on
	// map order.
	names := make([]string, 0, len(c.Deps))
	for name := range c.Deps {
		names = append(names, name)
	}
	if len(names) == 0 {
		return fmt.Errorf("check: render references no videos; declare an explicit output format")
	}
	slices.Sort(names)
	base := c.Sources[names[0]].Info()
	base.Start = rational.Zero
	for _, name := range names[1:] {
		if d := base.Mismatch(c.Sources[name].Info()); d != "" {
			return fmt.Errorf("check: videos %q and %q have incompatible formats (%s); declare an explicit output format",
				names[0], name, d)
		}
	}
	// The output frame cadence must match the time domain step.
	if !c.Spec.TimeDomain.Step.Mul(base.FPS).Equal(rational.One) {
		return fmt.Errorf("check: time domain step %s does not match the source frame rate %s; declare an explicit output format",
			c.Spec.TimeDomain.Step, base.FPS)
	}
	c.Output = base
	c.Passthrough = true
	return nil
}
