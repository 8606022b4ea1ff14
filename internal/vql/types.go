// Package vql defines the V2V declarative video editing language: the spec
// model (§III-B of the paper), its expression AST, the transform registry
// with data-dependent equivalence functions (§IV-C), a textual grammar, and
// JSON serialization.
//
// A spec is <TimeDomain, Render, videos, data_arrays>: TimeDomain is a set
// of evenly spaced rational times; Render maps each time t to a frame
// expression over the input videos and data arrays.
package vql

import (
	"fmt"

	"v2v/internal/frame"
	"v2v/internal/raster"
	"v2v/internal/rational"
)

// Type is the static type of an expression.
type Type uint8

const (
	// TypeInvalid marks an untyped or erroneous expression.
	TypeInvalid Type = iota
	// TypeFrame is a video frame.
	TypeFrame
	// TypeNum is an exact rational number (the DSL's only numeric type;
	// times, zoom factors, and coordinates are all TypeNum).
	TypeNum
	// TypeBool is a boolean.
	TypeBool
	// TypeStr is a string.
	TypeStr
	// TypeBoxes is a list of object bounding boxes.
	TypeBoxes
	// TypeNull is the type of the null literal and absent data samples.
	TypeNull
)

// String returns the DSL name of the type.
func (t Type) String() string {
	switch t {
	case TypeFrame:
		return "Frame"
	case TypeNum:
		return "Num"
	case TypeBool:
		return "Bool"
	case TypeStr:
		return "Str"
	case TypeBoxes:
		return "Boxes"
	case TypeNull:
		return "Null"
	default:
		return "Invalid"
	}
}

// Val is a runtime value produced by evaluating an expression.
type Val struct {
	Type  Type
	Bool  bool // beside Type, so the two share one word
	Frame *frame.Frame
	Num   rational.Rat
	Str   string
	Boxes []raster.Box
}

// Val constructors.
func FrameVal(f *frame.Frame) Val { return Val{Type: TypeFrame, Frame: f} }
func NumV(r rational.Rat) Val     { return Val{Type: TypeNum, Num: r} }
func BoolV(b bool) Val            { return Val{Type: TypeBool, Bool: b} }
func StrV(s string) Val           { return Val{Type: TypeStr, Str: s} }
func BoxesV(b []raster.Box) Val   { return Val{Type: TypeBoxes, Boxes: b} }
func NullV() Val                  { return Val{Type: TypeNull} }

// Truthy reports the boolean interpretation of the value: false, 0, "",
// an empty box list, null and a nil frame are false.
func (v Val) Truthy() bool {
	switch v.Type {
	case TypeBool:
		return v.Bool
	case TypeNum:
		return v.Num.Sign() != 0
	case TypeStr:
		return v.Str != ""
	case TypeBoxes:
		return len(v.Boxes) > 0
	case TypeFrame:
		return v.Frame != nil
	default:
		return false
	}
}

// Float returns the float64 approximation of a numeric value.
func (v Val) Float() float64 { return v.Num.Float() }

// Int returns the numeric value truncated toward negative infinity.
func (v Val) Int() int { return int(v.Num.Floor()) }

// String renders the value for diagnostics.
func (v Val) String() string {
	switch v.Type {
	case TypeFrame:
		if v.Frame == nil {
			return "Frame(nil)"
		}
		return fmt.Sprintf("Frame(%dx%d %v)", v.Frame.W, v.Frame.H, v.Frame.Format)
	case TypeNum:
		return v.Num.String()
	case TypeBool:
		return fmt.Sprintf("%t", v.Bool)
	case TypeStr:
		return fmt.Sprintf("%q", v.Str)
	case TypeBoxes:
		return fmt.Sprintf("boxes(%d)", len(v.Boxes))
	default:
		return "null"
	}
}
