package vql

import (
	"fmt"
	"strings"
	"testing"

	"v2v/internal/frame"
	"v2v/internal/rational"
)

// patternFrames serves frames whose every byte depends on the video, the
// time and the position, so a kernel applied out of order or to the wrong
// rows shows. Video "big" is served at twice the size.
type patternFrames struct{ w, h int }

func (p patternFrames) SourceFrame(video string, t rational.Rat) (*frame.Frame, error) {
	w, h := p.w, p.h
	if video == "big" {
		w, h = 2*w, 2*h
	}
	fr := frame.New(w, h, frame.FormatYUV420)
	seed := int(video[0])*31 + int(t.Mul(rational.FromInt(24)).Floor())*7
	for i := range fr.Pix {
		fr.Pix[i] = byte(seed + i*13 + (i*i)>>5)
	}
	return fr, nil
}

// chainEnv returns an environment over patternFrames whose Alloc counts
// the destinations it hands out.
func chainEnv(w, h int, allocs *int) *Env {
	return &Env{Frames: patternFrames{w, h}, Alloc: func(w, h int) *frame.Frame {
		*allocs++
		return frame.New(w, h, frame.FormatYUV420)
	}}
}

// injected stands in for an argument already evaluated by opByOp; Env.Ext
// resolves it.
type injected int

func (i injected) String() string        { return fmt.Sprintf("@%d", int(i)) }
func (i injected) EqualExpr(o Expr) bool { return o == Expr(i) }

// opByOp evaluates e one call at a time: every call argument is evaluated
// first and injected through Env.Ext, so no call ever has a call as its
// argument and no point-op chain forms. It is the reference a chain
// evaluated in one pass must match.
func opByOp(e Expr, env *Env) (Val, error) {
	var vals []Val
	env.Ext = func(x Expr, _ *Env) (Val, bool, error) {
		if i, ok := x.(injected); ok {
			return vals[i], true, nil
		}
		return Val{}, false, nil
	}
	defer func() { env.Ext = nil }()
	var eval func(Expr) (Val, error)
	eval = func(e Expr) (Val, error) {
		c, ok := e.(Call)
		if !ok {
			return Eval(e, env)
		}
		args := make([]Expr, len(c.Args))
		for i, a := range c.Args {
			if _, ok := a.(Call); !ok {
				args[i] = a
				continue
			}
			v, err := eval(a)
			if err != nil {
				return Val{}, err
			}
			vals = append(vals, v)
			args[i] = injected(len(vals) - 1)
		}
		return Eval(Call{Name: c.Name, Args: args}, env)
	}
	return eval(e)
}

// gradeChain nests n grades around a[t], each with its own parameters.
func gradeChain(n int) string {
	s := "a[t]"
	for i := 0; i < n; i++ {
		s = fmt.Sprintf("grade(%s, %d, %d/10, %d/10)", s, i*3-12, 8+i%5, 13-i%6)
	}
	return s
}

// TestPointOpChainMatchesOpByOp evaluates point-op chains in one pass and
// op by op and requires identical bytes, and one destination per chain:
// op by op, every call takes its own.
func TestPointOpChainMatchesOpByOp(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		allocs    int // destinations per evaluation
	}{
		{"three-ops", `grade(wipe(crossfade(a[t], b[t], 2/5), c[t], 3/5), -8, 12/10, 9/10)`, 1},
		// The secondary frame is itself a chain: one destination each.
		{"nested", `crossfade(wipe(grade(a[t], 10, 11/10, 9/10), b[t], 1/2), grade(grade(c[t], -5, 9/10, 12/10), 3, 1, 13/10), 1/3)`, 2},
		// More grades than raster.ApplyFused composes in its stack scratch.
		{"eleven-grades", gradeChain(11), 1},
		// crop has no point-op form, so it takes its own destination.
		{"overlay", `overlay(grade(a[t], 4, 1, 11/10), crop(b[t], 2, 2, 8, 8), 3, 5, 160)`, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustParseExpr(t, tc.src)
			var fused, plain int
			fenv, penv := chainEnv(16, 16, &fused), chainEnv(16, 16, &plain)
			for _, at := range []rational.Rat{rational.Zero, rational.One, rat(1, 2)} {
				fenv.T, penv.T = at, at
				fused, plain = 0, 0
				got, err := Eval(e, fenv)
				if err != nil {
					t.Fatalf("t=%s: %v", at, err)
				}
				want, err := opByOp(e, penv)
				if err != nil {
					t.Fatalf("t=%s op by op: %v", at, err)
				}
				if !got.Frame.Equal(want.Frame) {
					t.Fatalf("t=%s: chain output differs from op-by-op output", at)
				}
				if fused != tc.allocs {
					t.Errorf("t=%s: chain took %d destinations, want %d (op by op: %d)", at, fused, tc.allocs, plain)
				}
				if len(fenv.stack) != 0 || len(fenv.ops) != 0 {
					t.Errorf("t=%s: scratch not rebalanced: stack %d, ops %d", at, len(fenv.stack), len(fenv.ops))
				}
			}
		})
	}
}

// TestPointOpChainErrorRebalances fails a chain inside a stage's kernel
// and inside a stage's argument, with kernels of the stages below it
// already built, and requires an error naming the culprit, rebalanced
// scratch and a next evaluation on the same Env that still succeeds.
func TestPointOpChainErrorRebalances(t *testing.T) {
	var allocs int
	env := chainEnv(16, 16, &allocs)
	ok := mustParseExpr(t, `grade(crossfade(grade(a[t], 1, 1, 1), b[t], 1/2), 2, 11/10, 1)`)
	for _, tc := range []struct{ src, want string }{
		{`grade(crossfade(grade(a[t], 1, 1, 1), big[t], 1/2), 2, 11/10, 1)`, "crossfade"},
		{`grade(wipe(grade(a[t], 1, 1, 1), crop(b[t], 1, 0, 8, 8), 1/2), 2, 11/10, 1)`, "crop"},
	} {
		if _, err := Eval(mustParseExpr(t, tc.src), env); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", tc.src, err, tc.want)
		}
		if len(env.stack) != 0 || len(env.ops) != 0 {
			t.Errorf("%s: scratch not rebalanced: stack %d, ops %d", tc.src, len(env.stack), len(env.ops))
		}
		got, err := Eval(ok, env)
		if err != nil {
			t.Fatalf("next evaluation after %s: %v", tc.src, err)
		}
		want, err := opByOp(ok, chainEnv(16, 16, new(int)))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Frame.Equal(want.Frame) {
			t.Errorf("next evaluation after %s differs from op by op", tc.src)
		}
	}
}

// FuzzPointOpChain builds a chain of 1–12 point ops with parameters and
// secondary frames drawn from the input — a secondary is a source frame,
// a grade of one, or (for overlay) a crop — on 16×16 frames, and checks
// it against op-by-op evaluation.
func FuzzPointOpChain(f *testing.F) {
	f.Add([]byte{3, 0, 10, 20, 30, 1, 40, 50, 2, 60, 70})
	f.Add([]byte{12, 0, 1, 2, 3, 0, 4, 5, 6, 0, 7, 8, 9, 0, 10, 11, 12, 0, 13, 14, 15})
	f.Add([]byte{5, 3, 200, 17, 9, 88, 2, 255, 0, 1, 128, 64, 3, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		num := func(n, d int) Expr { return NumLit{V: rat(int64(n), int64(d))} }
		source := func() Expr {
			names := [...]string{"a", "b", "c"}
			return VideoRef{Name: names[next()%3], Index: BinOp{Op: OpAdd, L: TimeVar{}, R: num(next()%48, 24)}}
		}
		grade := func(e Expr) Expr {
			return Call{Name: "grade", Args: []Expr{e, num(next()-128, 1), num(next()%40, 10), num(next()%40, 10)}}
		}
		secondary := func() Expr {
			if next()%3 == 0 {
				return grade(source())
			}
			return source()
		}
		e := source()
		for n := 1 + next()%12; n > 0; n-- {
			switch next() % 4 {
			case 0:
				e = grade(e)
			case 1:
				e = Call{Name: "crossfade", Args: []Expr{e, secondary(), num(next()-32, 192)}}
			case 2:
				e = Call{Name: "wipe", Args: []Expr{e, secondary(), num(next()-32, 192)}}
			default:
				img := secondary()
				if next()%2 == 0 {
					img = Call{Name: "crop", Args: []Expr{img, num(2*(next()%3), 1), num(2*(next()%3), 1), num(2+2*(next()%5), 1), num(2+2*(next()%5), 1)}}
				}
				e = Call{Name: "overlay", Args: []Expr{e, img, num(next()%24-8, 1), num(next()%24-8, 1), num(next()-10, 1)}}
			}
		}
		env := chainEnv(16, 16, new(int))
		env.T = rat(int64(next()%48), 24)
		got, err := Eval(e, env)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		penv := chainEnv(16, 16, new(int))
		penv.T = env.T
		want, err := opByOp(e, penv)
		if err != nil {
			t.Fatalf("%s op by op: %v", e, err)
		}
		if !got.Frame.Equal(want.Frame) {
			t.Fatalf("%s: chain output differs from op-by-op output", e)
		}
		if len(env.stack) != 0 || len(env.ops) != 0 {
			t.Fatalf("%s: scratch not rebalanced: stack %d, ops %d", e, len(env.stack), len(env.ops))
		}
	})
}
