// Package data implements V2V data arrays: time-indexed relational values
// that specs join with video frames ("data_arrays" in the paper's §IV-B).
//
// A data array maps rational timestamps to scalar values — booleans,
// numbers, strings, or object-box lists. Arrays are loaded from JSON
// annotation files or materialized from SQL queries (package sqlmini), and
// the data-dependent rewriter queries them during its data-only pass.
package data

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"v2v/internal/raster"
	"v2v/internal/rational"
)

// Kind enumerates the value types a data array can hold.
type Kind uint8

const (
	// KindNull is the absent value.
	KindNull Kind = iota
	// KindBool is a boolean.
	KindBool
	// KindNum is a double-precision number.
	KindNum
	// KindStr is a string.
	KindStr
	// KindBoxes is a list of object bounding boxes.
	KindBoxes
)

// String returns the kind's name as used in error messages and the DSL.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindNum:
		return "num"
	case KindStr:
		return "str"
	case KindBoxes:
		return "boxes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is one dynamically typed datum.
type Value struct {
	Kind  Kind
	Bool  bool
	Num   float64
	Str   string
	Boxes []raster.Box
}

// Convenience constructors.
func Null() Value            { return Value{} }
func BoolVal(b bool) Value   { return Value{Kind: KindBool, Bool: b} }
func NumVal(n float64) Value { return Value{Kind: KindNum, Num: n} }
func StrVal(s string) Value  { return Value{Kind: KindStr, Str: s} }
func BoxesVal(b []raster.Box) Value {
	return Value{Kind: KindBoxes, Boxes: b}
}

// Truthy reports the boolean interpretation of the value: false/0/""/empty
// boxes/null are false.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindBool:
		return v.Bool
	case KindNum:
		return v.Num != 0
	case KindStr:
		return v.Str != ""
	case KindBoxes:
		return len(v.Boxes) > 0
	default:
		return false
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindBool:
		return v.Bool == o.Bool
	case KindNum:
		return v.Num == o.Num
	case KindStr:
		return v.Str == o.Str
	case KindBoxes:
		if len(v.Boxes) != len(o.Boxes) {
			return false
		}
		for i := range v.Boxes {
			if v.Boxes[i] != o.Boxes[i] {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindBool:
		return fmt.Sprintf("%t", v.Bool)
	case KindNum:
		return fmt.Sprintf("%g", v.Num)
	case KindStr:
		return fmt.Sprintf("%q", v.Str)
	case KindBoxes:
		return fmt.Sprintf("boxes(%d)", len(v.Boxes))
	default:
		return "null"
	}
}

// Entry is one (time, value) sample.
type Entry struct {
	T rational.Rat
	V Value
}

// Array is an immutable time-indexed array of values, sorted by time.
type Array struct {
	entries []Entry
}

// NewArray builds an array from entries, sorting them by time. Duplicate
// timestamps are rejected.
func NewArray(entries []Entry) (*Array, error) {
	es := make([]Entry, len(entries))
	copy(es, entries)
	sort.Slice(es, func(i, j int) bool { return es[i].T.Less(es[j].T) })
	for i := 1; i < len(es); i++ {
		if es[i].T.Equal(es[i-1].T) {
			return nil, fmt.Errorf("data: duplicate timestamp %v", es[i].T)
		}
	}
	return &Array{entries: es}, nil
}

// Len returns the number of samples.
func (a *Array) Len() int { return len(a.entries) }

// Entries returns the sorted samples (do not mutate).
func (a *Array) Entries() []Entry { return a.entries }

// At returns the value at exactly time t.
func (a *Array) At(t rational.Rat) (Value, bool) {
	i := sort.Search(len(a.entries), func(i int) bool { return !a.entries[i].T.Less(t) })
	if i < len(a.entries) && a.entries[i].T.Equal(t) {
		return a.entries[i].V, true
	}
	return Value{}, false
}

// Arrays holds a spec's data arrays by name. It is the evaluator's data
// source (vql.DataSource): DataAt reads the named array's sample at t.
type Arrays map[string]*Array

// DataAt returns the sample of the named array at t; (Value{}, false, nil)
// if it has none there, and an error if no array has that name.
func (as Arrays) DataAt(name string, t rational.Rat) (Value, bool, error) {
	arr, ok := as[name]
	if !ok {
		return Value{}, false, fmt.Errorf("data: unknown data array %q", name)
	}
	v, ok := arr.At(t)
	return v, ok, nil
}

// Span returns the half-open interval covering all samples (each sample is
// treated as an instant, so Hi is the last timestamp plus nothing — use
// Domain for subset checks against video ranges).
func (a *Array) Span() rational.Interval {
	if len(a.entries) == 0 {
		return rational.Interval{}
	}
	return rational.Interval{Lo: a.entries[0].T, Hi: a.entries[len(a.entries)-1].T}
}

// CoversRange reports whether the array has a sample at every time of r.
// The checker uses this to validate data dependencies.
func (a *Array) CoversRange(r rational.Range) bool {
	for i, n := 0, r.Count(); i < n; i++ {
		if _, ok := a.At(r.At(i)); !ok {
			return false
		}
	}
	return true
}

// AllIn returns the entries with Lo <= t < Hi.
func (a *Array) AllIn(iv rational.Interval) []Entry {
	lo := sort.Search(len(a.entries), func(i int) bool { return !a.entries[i].T.Less(iv.Lo) })
	hi := sort.Search(len(a.entries), func(i int) bool { return !a.entries[i].T.Less(iv.Hi) })
	return a.entries[lo:hi]
}

// AllFalsyIn reports whether every sample in [Lo, Hi) is falsy (empty box
// lists, null, zero). The rewriter asks this per GOP to decide whether a
// data-driven filter is the identity across the whole group of pictures.
func (a *Array) AllFalsyIn(iv rational.Interval) bool {
	for _, e := range a.AllIn(iv) {
		if e.V.Truthy() {
			return false
		}
	}
	return true
}

// jsonEntry is the on-disk annotation format: {"t": [num,den], "value": X}
// where X is null, a bool, a number, a string, or a list of box objects.
type jsonEntry struct {
	T     rational.Rat    `json:"t"`
	Value json.RawMessage `json:"value"`
}

type jsonBox struct {
	X     int    `json:"x"`
	Y     int    `json:"y"`
	W     int    `json:"w"`
	H     int    `json:"h"`
	Class string `json:"class,omitempty"`
	Track int    `json:"track,omitempty"`
}

// LoadJSON reads a data array from an annotation file.
func LoadJSON(path string) (*Array, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("data: %w", err)
	}
	return ParseJSON(raw)
}

// ParseJSON parses the annotation JSON format.
func ParseJSON(raw []byte) (*Array, error) {
	var rows []jsonEntry
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("data: parse annotations: %w", err)
	}
	entries := make([]Entry, 0, len(rows))
	for i, row := range rows {
		v, err := parseValue(row.Value)
		if err != nil {
			return nil, fmt.Errorf("data: entry %d: %w", i, err)
		}
		entries = append(entries, Entry{T: row.T, V: v})
	}
	return NewArray(entries)
}

func parseValue(raw json.RawMessage) (Value, error) {
	s := strings.TrimSpace(string(raw))
	switch {
	case s == "" || s == "null":
		return Null(), nil
	case s == "true":
		return BoolVal(true), nil
	case s == "false":
		return BoolVal(false), nil
	case strings.HasPrefix(s, `"`):
		var str string
		if err := json.Unmarshal(raw, &str); err != nil {
			return Value{}, err
		}
		return StrVal(str), nil
	case strings.HasPrefix(s, "["):
		var boxes []jsonBox
		if err := json.Unmarshal(raw, &boxes); err != nil {
			return Value{}, fmt.Errorf("box list: %w", err)
		}
		out := make([]raster.Box, len(boxes))
		for i, b := range boxes {
			out[i] = raster.Box{X: b.X, Y: b.Y, W: b.W, H: b.H, Class: b.Class, Track: b.Track}
		}
		return BoxesVal(out), nil
	default:
		var n float64
		if err := json.Unmarshal(raw, &n); err != nil {
			return Value{}, fmt.Errorf("unsupported value %s", s)
		}
		return NumVal(n), nil
	}
}

// MarshalJSON writes the array in the annotation file format, so arrays can
// be generated programmatically (dataset generators) and saved.
func (a *Array) MarshalJSON() ([]byte, error) {
	rows := make([]jsonEntry, len(a.entries))
	for i, e := range a.entries {
		var raw []byte
		var err error
		switch e.V.Kind {
		case KindNull:
			raw = []byte("null")
		case KindBool:
			raw, err = json.Marshal(e.V.Bool)
		case KindNum:
			raw, err = json.Marshal(e.V.Num)
		case KindStr:
			raw, err = json.Marshal(e.V.Str)
		case KindBoxes:
			boxes := make([]jsonBox, len(e.V.Boxes))
			for j, b := range e.V.Boxes {
				boxes[j] = jsonBox{X: b.X, Y: b.Y, W: b.W, H: b.H, Class: b.Class, Track: b.Track}
			}
			raw, err = json.Marshal(boxes)
		}
		if err != nil {
			return nil, err
		}
		rows[i] = jsonEntry{T: e.T, Value: raw}
	}
	return json.Marshal(rows)
}

// SaveJSON writes the array to an annotation file.
func (a *Array) SaveJSON(path string) error {
	raw, err := json.Marshal(a)
	if err != nil {
		return fmt.Errorf("data: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("data: %w", err)
	}
	return nil
}
