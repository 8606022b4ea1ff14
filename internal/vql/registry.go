package vql

import (
	"fmt"
	"sync"

	"v2v/internal/frame"
	"v2v/internal/raster"
)

// Transform describes a registered frame transform (built-in or UDF).
//
// Eval computes the transform. A transform that renders a new frame takes
// it from dst and writes every byte of it; it may instead return one of
// its frame arguments unchanged, or (a UDF) a frame of its own. args is
// valid only for the duration of the call.
//
// PointOp, set on per-pixel point operations, checks the arguments and
// returns the operation's kernel; args[0] is shaped like the frame it
// applies to (in a chain, it is the base frame). Eval of a point op is
// raster.ApplyFused over a chain of one; vql.Eval runs a chain in one pass.
//
// DDE, when non-nil, is the paper's data-dependent equivalence function
// f_dde (§IV-C): it receives the call's argument expressions plus the
// evaluated values of every *non-frame* argument (frame arguments are
// symbolic placeholders with Type TypeFrame and a nil Frame) and may
// return a simpler equivalent expression. The rewriter applies DDE during
// its data-only first pass.
type Transform struct {
	Name     string
	Params   []Type
	Variadic bool // last param may repeat
	Result   Type
	// PreservesFormat marks transforms whose output frame has the same
	// dimensions as their first frame argument. The planner uses this to
	// keep format passthrough viable across decorated arms.
	PreservesFormat bool
	Eval            func(dst Alloc, args []Val) (Val, error)
	PointOp         func(args []Val) (raster.PointOp, error)
	DDE             func(args []Expr, vals []Val) (Expr, bool)
}

// registry holds all known transforms, keyed by lowercase name.
var (
	regMu    sync.RWMutex
	registry = map[string]*Transform{}
)

// Register adds a transform (or UDF) to the global registry. Registering a
// duplicate name panics: transform names are part of the language.
func Register(t *Transform) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[t.Name]; dup {
		panic(fmt.Sprintf("vql: transform %q already registered", t.Name))
	}
	registry[t.Name] = t
}

// Lookup finds a transform by name.
func Lookup(name string) (*Transform, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	t, ok := registry[name]
	return t, ok
}

// TransformNames returns the registered names (for error messages).
func TransformNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	return out
}

// CheckArity validates an argument count against the signature.
func (t *Transform) CheckArity(n int) error {
	switch {
	case t.Variadic && n < len(t.Params):
		return fmt.Errorf("vql: %s wants at least %d args, got %d", t.Name, len(t.Params), n)
	case !t.Variadic && n != len(t.Params):
		return fmt.Errorf("vql: %s wants %d args, got %d", t.Name, len(t.Params), n)
	}
	return nil
}

// ParamType returns the declared type of argument i, handling variadics.
func (t *Transform) ParamType(i int) Type {
	if i >= len(t.Params) {
		return t.Params[len(t.Params)-1]
	}
	return t.Params[i]
}

// IsFrameExpr reports whether e statically produces a frame: a video
// reference, or a call of a transform whose result is a frame.
func IsFrameExpr(e Expr) bool {
	switch n := e.(type) {
	case VideoRef:
		return true
	case Call:
		tr, ok := Lookup(n.Name)
		return ok && tr.Result == TypeFrame
	default:
		return false
	}
}

// argFrame extracts frame argument i.
func argFrame(args []Val, i int) (*frame.Frame, error) {
	if args[i].Type != TypeFrame || args[i].Frame == nil {
		return nil, fmt.Errorf("vql: argument %d must be a frame, got %v", i, args[i].Type)
	}
	return args[i].Frame, nil
}

// argFrames extracts frame arguments 0..len(fs)-1 into fs.
func argFrames(args []Val, fs []*frame.Frame) error {
	for i := range fs {
		f, err := argFrame(args, i)
		if err != nil {
			return err
		}
		fs[i] = f
	}
	return nil
}

// sized is the Eval of a transform whose output is shaped like its first
// argument, a frame: render writes it from the arguments.
func sized(render func(out, in *frame.Frame, args []Val) error) func(Alloc, []Val) (Val, error) {
	return func(dst Alloc, args []Val) (Val, error) {
		in, err := argFrame(args, 0)
		if err != nil {
			return Val{}, err
		}
		out := dst.New(in.W, in.H)
		if err := render(out, in, args); err != nil {
			return Val{}, err
		}
		return FrameVal(out), nil
	}
}

// registerPointOp registers a point operation; its Eval applies the kernel
// t.PointOp builds.
func registerPointOp(t *Transform) {
	t.Eval = sized(func(out, in *frame.Frame, args []Val) error {
		op, err := t.PointOp(args)
		if err != nil {
			return err
		}
		ops := [1]raster.PointOp{op}
		raster.ApplyFused(out, in, ops[:])
		return nil
	})
	Register(t)
}

// secondFrame returns frame argument 1 of the transform name, which must
// be shaped like frame argument 0.
func secondFrame(name string, args []Val) (*frame.Frame, error) {
	var fs [2]*frame.Frame
	if err := argFrames(args, fs[:]); err != nil {
		return nil, err
	}
	if !fs[0].SameShape(fs[1]) {
		return nil, fmt.Errorf("vql: %s frames must share a shape (%dx%d vs %dx%d)",
			name, fs[0].W, fs[0].H, fs[1].W, fs[1].H)
	}
	return fs[1], nil
}

func init() {
	// zoom(Frame, factor) — crop the center 1/factor and scale back up.
	Register(&Transform{
		Name: "zoom", Params: []Type{TypeFrame, TypeNum}, Result: TypeFrame, PreservesFormat: true,
		Eval: sized(func(out, in *frame.Frame, args []Val) error {
			factor := args[1].Float()
			if factor < 1 {
				return fmt.Errorf("vql: zoom factor %v must be >= 1", factor)
			}
			raster.ZoomInto(out, in, factor)
			return nil
		}),
		DDE: func(args []Expr, vals []Val) (Expr, bool) {
			// zoom by 1 is the identity.
			if vals[1].Type == TypeNum && vals[1].Num.Equal(ratOne) {
				return args[0], true
			}
			return nil, false
		},
	})

	// blur(Frame, sigma) — Gaussian blur (Q4/Q9's pixel-wise filter);
	// sigma <= 0 passes the frame through.
	Register(&Transform{
		Name: "blur", Params: []Type{TypeFrame, TypeNum}, Result: TypeFrame, PreservesFormat: true,
		Eval: func(dst Alloc, args []Val) (Val, error) {
			in, err := argFrame(args, 0)
			if err != nil {
				return Val{}, err
			}
			sigma := args[1].Float()
			if sigma <= 0 {
				return args[0], nil
			}
			out := dst.New(in.W, in.H)
			raster.BlurInto(out, in, sigma)
			return FrameVal(out), nil
		},
		DDE: func(args []Expr, vals []Val) (Expr, bool) {
			if vals[1].Type == TypeNum && vals[1].Num.Sign() <= 0 {
				return args[0], true
			}
			return nil, false
		},
	})
	Register(&Transform{
		Name: "sharpen", Params: []Type{TypeFrame}, Result: TypeFrame, PreservesFormat: true,
		Eval: sized(func(out, in *frame.Frame, _ []Val) error {
			raster.SharpenInto(out, in)
			return nil
		}),
	})

	Register(&Transform{
		Name: "edges", Params: []Type{TypeFrame}, Result: TypeFrame, PreservesFormat: true,
		Eval: sized(func(out, in *frame.Frame, _ []Val) error {
			raster.EdgeDetectInto(out, in)
			return nil
		}),
	})

	Register(&Transform{
		Name: "denoise", Params: []Type{TypeFrame}, Result: TypeFrame, PreservesFormat: true,
		Eval: sized(func(out, in *frame.Frame, _ []Val) error {
			raster.DenoiseInto(out, in)
			return nil
		}),
	})

	// grade(Frame, brightness, contrast, saturation)
	registerPointOp(&Transform{
		Name: "grade", Params: []Type{TypeFrame, TypeNum, TypeNum, TypeNum}, Result: TypeFrame, PreservesFormat: true,
		PointOp: func(args []Val) (raster.PointOp, error) {
			return raster.GradeOp(args[1].Int(), args[2].Float(), args[3].Float()), nil
		},
		DDE: func(args []Expr, vals []Val) (Expr, bool) {
			if vals[1].Type == TypeNum && vals[1].Num.Sign() == 0 &&
				vals[2].Type == TypeNum && vals[2].Num.Equal(ratOne) &&
				vals[3].Type == TypeNum && vals[3].Num.Equal(ratOne) {
				return args[0], true
			}
			return nil, false
		},
	})

	// grid(a, b, c, d) — 2x2 composition (Q3/Q8).
	Register(&Transform{
		Name: "grid", Params: []Type{TypeFrame, TypeFrame, TypeFrame, TypeFrame}, Result: TypeFrame, PreservesFormat: true,
		Eval: sized(func(out, _ *frame.Frame, args []Val) error {
			var fs [4]*frame.Frame
			if err := argFrames(args, fs[:]); err != nil {
				return err
			}
			raster.Grid2x2Into(out, fs[0], fs[1], fs[2], fs[3])
			return nil
		}),
	})

	// gridn(frames...) — near-square grid of any number of streams.
	Register(&Transform{
		Name: "gridn", Params: []Type{TypeFrame}, Variadic: true, Result: TypeFrame, PreservesFormat: true,
		Eval: sized(func(out, _ *frame.Frame, args []Val) error {
			var buf [16]*frame.Frame // longer lists spill to the heap
			fs := buf[:0]
			for i := range args {
				f, err := argFrame(args, i)
				if err != nil {
					return err
				}
				fs = append(fs, f)
			}
			raster.GridNInto(out, fs)
			return nil
		}),
	})

	// hstack(a, b) — side-by-side composition.
	Register(&Transform{
		Name: "hstack", Params: []Type{TypeFrame, TypeFrame}, Result: TypeFrame, PreservesFormat: true,
		Eval: sized(func(out, a *frame.Frame, args []Val) error {
			b, err := argFrame(args, 1)
			if err != nil {
				return err
			}
			raster.HStackInto(out, a, b)
			return nil
		}),
	})

	// vstack(a, b) — stacked composition.
	Register(&Transform{
		Name: "vstack", Params: []Type{TypeFrame, TypeFrame}, Result: TypeFrame, PreservesFormat: true,
		Eval: sized(func(out, a *frame.Frame, args []Val) error {
			b, err := argFrame(args, 1)
			if err != nil {
				return err
			}
			raster.VStackInto(out, a, b)
			return nil
		}),
	})

	// pip(base, inset, x, y, scalediv) — picture-in-picture.
	Register(&Transform{
		Name: "pip", Params: []Type{TypeFrame, TypeFrame, TypeNum, TypeNum, TypeNum}, Result: TypeFrame, PreservesFormat: true,
		Eval: sized(func(out, base *frame.Frame, args []Val) error {
			inset, err := argFrame(args, 1)
			if err != nil {
				return err
			}
			raster.PiPInto(out, base, inset, args[2].Int(), args[3].Int(), args[4].Int())
			return nil
		}),
	})

	// overlay(base, image, x, y, alpha)
	registerPointOp(&Transform{
		Name: "overlay", Params: []Type{TypeFrame, TypeFrame, TypeNum, TypeNum, TypeNum}, Result: TypeFrame, PreservesFormat: true,
		PointOp: func(args []Val) (raster.PointOp, error) {
			img, err := argFrame(args, 1)
			if err != nil {
				return raster.PointOp{}, err
			}
			return raster.OverlayOp(img, args[2].Int(), args[3].Int(), args[4].Int()), nil
		},
		DDE: func(args []Expr, vals []Val) (Expr, bool) {
			// Fully transparent overlays are the identity.
			if vals[4].Type == TypeNum && vals[4].Num.Sign() <= 0 {
				return args[0], true
			}
			return nil, false
		},
	})

	// boxes(Frame, Boxes) — the paper's BoundingBox operator (Q5/Q10).
	Register(&Transform{
		Name: "boxes", Params: []Type{TypeFrame, TypeBoxes}, Result: TypeFrame, PreservesFormat: true,
		Eval: sized(func(out, in *frame.Frame, args []Val) error {
			var bs []raster.Box
			switch args[1].Type {
			case TypeBoxes:
				bs = args[1].Boxes
			case TypeNull:
				// Missing samples mean "no detections".
			default:
				return fmt.Errorf("vql: boxes wants a box list, got %v", args[1].Type)
			}
			raster.BoundingBoxesInto(out, in, bs)
			return nil
		}),
		DDE: func(args []Expr, vals []Val) (Expr, bool) {
			// BoundingBox_dde: identity when the frame has no objects.
			if vals[1].Type == TypeNull || (vals[1].Type == TypeBoxes && len(vals[1].Boxes) == 0) {
				return args[0], true
			}
			return nil, false
		},
	})

	// label(Frame, text, x, y) — burn text onto a frame.
	Register(&Transform{
		Name: "label", Params: []Type{TypeFrame, TypeStr, TypeNum, TypeNum}, Result: TypeFrame, PreservesFormat: true,
		Eval: sized(func(out, in *frame.Frame, args []Val) error {
			var text string
			switch args[1].Type {
			case TypeStr:
				text = args[1].Str
			case TypeNull:
			default:
				text = args[1].String()
			}
			raster.LabelInto(out, in, args[2].Int(), args[3].Int(), text)
			return nil
		}),
		DDE: func(args []Expr, vals []Val) (Expr, bool) {
			if vals[1].Type == TypeNull || (vals[1].Type == TypeStr && vals[1].Str == "") {
				return args[0], true
			}
			return nil, false
		},
	})

	// ifthenelse(cond, a, b) — the paper's data-rewrite running example.
	Register(&Transform{
		Name: "ifthenelse", Params: []Type{TypeBool, TypeFrame, TypeFrame}, Result: TypeFrame, PreservesFormat: true,
		Eval: func(_ Alloc, args []Val) (Val, error) {
			branch := 2
			if args[0].Truthy() {
				branch = 1
			}
			f, err := argFrame(args, branch)
			if err != nil {
				return Val{}, err
			}
			return FrameVal(f), nil
		},
		DDE: func(args []Expr, vals []Val) (Expr, bool) {
			// IfThenElse_dde: select the branch once the condition is known.
			if vals[0].Type != TypeFrame && vals[0].Type != TypeInvalid {
				if vals[0].Truthy() {
					return args[1], true
				}
				return args[2], true
			}
			return nil, false
		},
	})

	// crossfade(a, b, mix)
	registerPointOp(&Transform{
		Name: "crossfade", Params: []Type{TypeFrame, TypeFrame, TypeNum}, Result: TypeFrame, PreservesFormat: true,
		PointOp: func(args []Val) (raster.PointOp, error) {
			b, err := secondFrame("crossfade", args)
			if err != nil {
				return raster.PointOp{}, err
			}
			return raster.CrossfadeOp(b, args[2].Float()), nil
		},
		DDE: func(args []Expr, vals []Val) (Expr, bool) {
			if vals[2].Type == TypeNum {
				if vals[2].Num.Sign() <= 0 {
					return args[0], true
				}
				if !vals[2].Num.Less(ratOne) {
					return args[1], true
				}
			}
			return nil, false
		},
	})

	// wipe(a, b, position)
	registerPointOp(&Transform{
		Name: "wipe", Params: []Type{TypeFrame, TypeFrame, TypeNum}, Result: TypeFrame, PreservesFormat: true,
		PointOp: func(args []Val) (raster.PointOp, error) {
			b, err := secondFrame("wipe", args)
			if err != nil {
				return raster.PointOp{}, err
			}
			return raster.WipeOp(b, args[2].Float()), nil
		},
	})

	// scale(Frame, w, h)
	Register(&Transform{
		Name: "scale", Params: []Type{TypeFrame, TypeNum, TypeNum}, Result: TypeFrame,
		Eval: func(dst Alloc, args []Val) (Val, error) {
			f, err := argFrame(args, 0)
			if err != nil {
				return Val{}, err
			}
			w, h := args[1].Int(), args[2].Int()
			if w <= 0 || h <= 0 || w%2 != 0 || h%2 != 0 {
				return Val{}, fmt.Errorf("vql: scale target %dx%d must be positive and even", w, h)
			}
			out := dst.New(w, h)
			raster.ScaleInto(out, f)
			return FrameVal(out), nil
		},
	})

	// crop(Frame, x, y, w, h)
	Register(&Transform{
		Name: "crop", Params: []Type{TypeFrame, TypeNum, TypeNum, TypeNum, TypeNum}, Result: TypeFrame,
		Eval: func(dst Alloc, args []Val) (Val, error) {
			f, err := argFrame(args, 0)
			if err != nil {
				return Val{}, err
			}
			x, y, w, h := args[1].Int(), args[2].Int(), args[3].Int(), args[4].Int()
			if x%2 != 0 || y%2 != 0 || w%2 != 0 || h%2 != 0 {
				return Val{}, fmt.Errorf("vql: crop rect %d,%d %dx%d must be even-aligned", x, y, w, h)
			}
			if x < 0 || y < 0 || w <= 0 || h <= 0 || x+w > f.W || y+h > f.H {
				return Val{}, fmt.Errorf("vql: crop rect %d,%d %dx%d outside %dx%d frame", x, y, w, h, f.W, f.H)
			}
			out := dst.New(w, h)
			raster.CropInto(out, f, x, y)
			return FrameVal(out), nil
		},
	})

	// count(Boxes) — number of objects; usable in conditions.
	Register(&Transform{
		Name: "count", Params: []Type{TypeBoxes}, Result: TypeNum,
		Eval: func(_ Alloc, args []Val) (Val, error) {
			switch args[0].Type {
			case TypeBoxes:
				return NumV(intRat(len(args[0].Boxes))), nil
			case TypeNull:
				return NumV(ratZero), nil
			default:
				return Val{}, fmt.Errorf("vql: count wants boxes, got %v", args[0].Type)
			}
		},
	})
}
