package vql

import (
	"fmt"

	"v2v/internal/frame"
	"v2v/internal/raster"
	"v2v/internal/rational"
)

var (
	ratZero = rational.Zero
	ratOne  = rational.One
)

func intRat(n int) rational.Rat { return rational.FromInt(int64(n)) }

// FrameSource provides source frames by video name and time. The execution
// engine and baseline engine supply implementations backed by media
// readers; tests supply synthetic ones.
type FrameSource interface {
	SourceFrame(video string, t rational.Rat) (*frame.Frame, error)
}

// DataSource provides data array samples by name and time.
type DataSource interface {
	// DataAt returns the sample of the named array at time t. Missing
	// samples return (Null, false, nil); unknown arrays return an error.
	DataAt(name string, t rational.Rat) (Val, bool, error)
}

// Alloc hands a transform the w×h YUV420 frame it renders into. The
// frame's contents are unspecified — a pooled frame holds stale pixels —
// so the transform must write every byte.
type Alloc func(w, h int) *frame.Frame

// New returns a destination from a, or a fresh frame.New when a is nil.
func (a Alloc) New(w, h int) *frame.Frame {
	if a == nil {
		return frame.New(w, h, frame.FormatYUV420)
	}
	return a(w, h)
}

// Env is the evaluation environment for one render invocation. An Env is
// reusable across times but not safe for concurrent use.
type Env struct {
	T      rational.Rat
	Frames FrameSource
	Data   DataSource
	// Alloc supplies the destinations of frame transforms. The executor
	// sets a pooled allocator and releases every frame it hands out except
	// the one the expression returns; nil allocates with frame.New.
	Alloc Alloc
	// Ext evaluates expression node types Eval does not know about
	// (e.g. the planner's port references). It is consulted before Eval
	// reports an unknown-node error.
	Ext func(Expr, *Env) (Val, bool, error)

	stack []Val            // arguments of the calls being evaluated, reused across calls
	ops   []raster.PointOp // kernels of the point-op chains being evaluated, reused likewise
}

// Eval computes the value of e in env. It is the reference semantics of
// the language: the baseline engine is exactly Eval applied per output
// time, and the optimizer's output must agree with it frame-for-frame.
func Eval(e Expr, env *Env) (Val, error) {
	switch n := e.(type) {
	case TimeVar:
		return NumV(env.T), nil
	case NumLit:
		return NumV(n.V), nil
	case StrLit:
		return StrV(n.V), nil
	case BoolLit:
		return BoolV(n.V), nil
	case NullLit:
		return NullV(), nil
	case Neg:
		v, err := Eval(n.E, env)
		if err != nil {
			return Val{}, err
		}
		if v.Type != TypeNum {
			return Val{}, fmt.Errorf("vql: cannot negate %v", v.Type)
		}
		return NumV(v.Num.Neg()), nil
	case Not:
		v, err := Eval(n.E, env)
		if err != nil {
			return Val{}, err
		}
		return BoolV(!v.Truthy()), nil
	case BinOp:
		return evalBinOp(n, env)
	case VideoRef:
		idx, err := Eval(n.Index, env)
		if err != nil {
			return Val{}, err
		}
		if idx.Type != TypeNum {
			return Val{}, fmt.Errorf("vql: video index must be a time, got %v", idx.Type)
		}
		if env.Frames == nil {
			return Val{}, fmt.Errorf("vql: no frame source for %s[%s]", n.Name, idx.Num)
		}
		fr, err := env.Frames.SourceFrame(n.Name, idx.Num)
		if err != nil {
			return Val{}, err
		}
		return FrameVal(fr), nil
	case DataRef:
		idx, err := Eval(n.Index, env)
		if err != nil {
			return Val{}, err
		}
		if idx.Type != TypeNum {
			return Val{}, fmt.Errorf("vql: data index must be a time, got %v", idx.Type)
		}
		if env.Data == nil {
			return Val{}, fmt.Errorf("vql: no data source for %s[%s]", n.Name, idx.Num)
		}
		v, ok, err := env.Data.DataAt(n.Name, idx.Num)
		if err != nil {
			return Val{}, err
		}
		if !ok {
			return NullV(), nil
		}
		return v, nil
	case Call:
		tr, ok := Lookup(n.Name)
		if !ok {
			return Val{}, fmt.Errorf("vql: unknown transform %q", n.Name)
		}
		if err := tr.CheckArity(len(n.Args)); err != nil {
			return Val{}, err
		}
		if tr.PointOp != nil {
			if _, _, ok := pointOpCall(n.Args[0]); ok {
				return evalChain(n, tr, env)
			}
		}
		base := len(env.stack)
		for _, a := range n.Args {
			v, err := Eval(a, env)
			if err != nil {
				env.stack = env.stack[:base]
				return Val{}, err
			}
			env.stack = append(env.stack, v)
		}
		v, err := tr.Eval(env.Alloc, env.stack[base:])
		env.stack = env.stack[:base]
		return v, err
	case Match:
		body := n.ArmFor(env.T)
		if body == nil {
			return Val{}, fmt.Errorf("vql: no match arm covers t = %s", env.T)
		}
		return Eval(body, env)
	default:
		if env.Ext != nil {
			if v, ok, err := env.Ext(e, env); ok || err != nil {
				return v, err
			}
		}
		return Val{}, fmt.Errorf("vql: cannot evaluate %T", e)
	}
}

// pointOpCall reports whether e calls a point op, returning the call and its transform.
func pointOpCall(e Expr) (c Call, tr *Transform, ok bool) {
	if c, ok = e.(Call); ok {
		tr, ok = Lookup(c.Name)
	}
	return c, tr, ok && tr.PointOp != nil
}

// evalChain evaluates a chain of point ops — a point-op call whose
// argument 0 is another — in one pass: pushStage builds every kernel, then
// one raster.ApplyFused writes one destination. Every stage keeps the base
// frame's shape, so the bytes are those of evaluating the calls one by one.
//
//v2v:hotpath
func evalChain(c Call, tr *Transform, env *Env) (Val, error) {
	ops := len(env.ops)
	base, err := pushStage(c, tr, env)
	if err == nil {
		out := env.Alloc.New(base.Frame.W, base.Frame.H)
		raster.ApplyFused(out, base.Frame, env.ops[ops:])
		base = FrameVal(out)
	}
	env.ops = env.ops[:ops]
	return base, err
}

// pushStage evaluates c's arguments in order, argument 0 by pushStage if
// it calls a point op, and appends c's kernel to env.ops, innermost first.
// It returns the chain's base frame, which builds every kernel as args[0].
//
//v2v:hotpath
func pushStage(c Call, tr *Transform, env *Env) (Val, error) {
	if err := tr.CheckArity(len(c.Args)); err != nil {
		return Val{}, err
	}
	sb := len(env.stack)
	for i, a := range c.Args {
		var v Val
		var err error
		if inner, itr, ok := pointOpCall(a); ok && i == 0 {
			v, err = pushStage(inner, itr, env)
		} else {
			v, err = Eval(a, env)
		}
		if err != nil {
			env.stack = env.stack[:sb]
			return Val{}, err
		}
		env.stack = append(env.stack, v)
	}
	args := env.stack[sb:]
	env.stack = env.stack[:sb] // args stays intact: nothing is pushed before return
	if _, err := argFrame(args, 0); err != nil {
		return Val{}, err
	}
	op, err := tr.PointOp(args)
	if err != nil {
		return Val{}, err
	}
	env.ops = append(env.ops, op)
	return args[0], nil
}

func evalBinOp(n BinOp, env *Env) (Val, error) {
	// Short-circuit logic first.
	switch n.Op {
	case OpAnd:
		l, err := Eval(n.L, env)
		if err != nil {
			return Val{}, err
		}
		if !l.Truthy() {
			return BoolV(false), nil
		}
		r, err := Eval(n.R, env)
		if err != nil {
			return Val{}, err
		}
		return BoolV(r.Truthy()), nil
	case OpOr:
		l, err := Eval(n.L, env)
		if err != nil {
			return Val{}, err
		}
		if l.Truthy() {
			return BoolV(true), nil
		}
		r, err := Eval(n.R, env)
		if err != nil {
			return Val{}, err
		}
		return BoolV(r.Truthy()), nil
	}
	l, err := Eval(n.L, env)
	if err != nil {
		return Val{}, err
	}
	r, err := Eval(n.R, env)
	if err != nil {
		return Val{}, err
	}
	switch n.Op {
	case OpAdd, OpSub, OpMul, OpDiv:
		if l.Type != TypeNum || r.Type != TypeNum {
			return Val{}, fmt.Errorf("vql: arithmetic needs numbers, got %v %s %v", l.Type, binOpNames[n.Op], r.Type)
		}
		switch n.Op {
		case OpAdd:
			return NumV(l.Num.Add(r.Num)), nil
		case OpSub:
			return NumV(l.Num.Sub(r.Num)), nil
		case OpMul:
			return NumV(l.Num.Mul(r.Num)), nil
		default:
			if r.Num.Sign() == 0 {
				return Val{}, fmt.Errorf("vql: division by zero")
			}
			return NumV(l.Num.Div(r.Num)), nil
		}
	case OpLT, OpLE, OpGT, OpGE:
		if l.Type != TypeNum || r.Type != TypeNum {
			return Val{}, fmt.Errorf("vql: ordering needs numbers, got %v %s %v", l.Type, binOpNames[n.Op], r.Type)
		}
		c := l.Num.Cmp(r.Num)
		switch n.Op {
		case OpLT:
			return BoolV(c < 0), nil
		case OpLE:
			return BoolV(c <= 0), nil
		case OpGT:
			return BoolV(c > 0), nil
		default:
			return BoolV(c >= 0), nil
		}
	case OpEQ, OpNE:
		eq, err := valsEqual(l, r)
		if err != nil {
			return Val{}, err
		}
		if n.Op == OpNE {
			eq = !eq
		}
		return BoolV(eq), nil
	}
	return Val{}, fmt.Errorf("vql: unknown operator")
}

func valsEqual(l, r Val) (bool, error) {
	if l.Type == TypeNull || r.Type == TypeNull {
		return l.Type == r.Type, nil
	}
	if l.Type != r.Type {
		return false, nil
	}
	switch l.Type {
	case TypeNum:
		return l.Num.Equal(r.Num), nil
	case TypeBool:
		return l.Bool == r.Bool, nil
	case TypeStr:
		return l.Str == r.Str, nil
	case TypeBoxes:
		if len(l.Boxes) != len(r.Boxes) {
			return false, nil
		}
		for i := range l.Boxes {
			if l.Boxes[i] != r.Boxes[i] {
				return false, nil
			}
		}
		return true, nil
	case TypeFrame:
		return false, fmt.Errorf("vql: frames are not comparable")
	}
	return false, nil
}
