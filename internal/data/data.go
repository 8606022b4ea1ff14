// Package data implements V2V data arrays: time-indexed relational values
// that specs join with video frames ("data_arrays" in the paper's §IV-B).
//
// A data array maps rational timestamps to scalar values — booleans,
// numbers, strings, or object-box lists — held as the evaluator's own
// vql.Val. Arrays are loaded from JSON annotation files or materialized
// from SQL queries (package sqlmini); a value is converted once, at load,
// and a number is an exact rational from then on.
package data

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"v2v/internal/raster"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

// Entry is one (time, value) sample.
type Entry struct {
	T rational.Rat
	V vql.Val
}

// Array is an immutable time-indexed array of values, sorted by time. One
// array may be shared by many runs at once (the cache holds parsed
// annotation files), so nothing may mutate its entries or their boxes.
type Array struct {
	entries []Entry

	idOnce sync.Once
	id     string
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

// ID is a SHA-256 hash of the array's entries, so a cache key over a sql-
// or file-declared array reflects the data actually read. It is computed
// on the first call and kept.
func (a *Array) ID() string {
	a.idOnce.Do(func() {
		h := sha256.New()
		for _, e := range a.entries {
			fmt.Fprintf(h, "%s=", e.T)
			v := e.V
			switch v.Type {
			case vql.TypeBool:
				fmt.Fprintf(h, "b%t;", v.Bool)
			case vql.TypeNum:
				fmt.Fprintf(h, "n%s;", v.Num)
			case vql.TypeStr:
				fmt.Fprintf(h, "s%q;", v.Str)
			case vql.TypeBoxes:
				io.WriteString(h, "x[")
				for _, b := range v.Boxes {
					fmt.Fprintf(h, "%d,%d,%d,%d,%q,%d;", b.X, b.Y, b.W, b.H, b.Class, b.Track)
				}
				io.WriteString(h, "];")
			default:
				io.WriteString(h, "_;")
			}
		}
		a.id = hex.EncodeToString(h.Sum(nil))
	})
	return a.id
}

// Bytes is the memory the array holds: its entries plus the boxes and
// strings they point to. The cache charges a parsed array by it.
func (a *Array) Bytes() int64 {
	n := int64(cap(a.entries)) * int64(unsafe.Sizeof(Entry{}))
	for _, e := range a.entries {
		n += int64(len(e.V.Str)) + int64(cap(e.V.Boxes))*int64(unsafe.Sizeof(raster.Box{}))
		for _, b := range e.V.Boxes {
			n += int64(len(b.Class))
		}
	}
	return n
}

// At returns the value at exactly time t.
func (a *Array) At(t rational.Rat) (vql.Val, bool) {
	i := sort.Search(len(a.entries), func(i int) bool { return !a.entries[i].T.Less(t) })
	if i < len(a.entries) && a.entries[i].T.Equal(t) {
		return a.entries[i].V, true
	}
	return vql.Val{}, false
}

// Arrays holds a spec's data arrays by name. It is the evaluator's data
// source (vql.DataSource): DataAt reads the named array's sample at t.
type Arrays map[string]*Array

// DataAt returns the sample of the named array at t; (vql.Val{}, false,
// nil) if it has none there, and an error if no array has that name.
func (as Arrays) DataAt(name string, t rational.Rat) (vql.Val, bool, error) {
	arr, ok := as[name]
	if !ok {
		return vql.Val{}, false, fmt.Errorf("data: unknown data array %q", name)
	}
	v, ok := arr.At(t)
	return v, ok, nil
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

// ParseJSON parses the annotation JSON format. A number becomes the exact
// rational of its shortest decimal (0.1 is 1/10); one with no int64
// rational form (1e300) is an error naming its entry.
func ParseJSON(raw []byte) (*Array, error) {
	var rows []jsonEntry
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("data: parse annotations: %w", err)
	}
	entries := make([]Entry, 0, len(rows))
	for i, row := range rows {
		v, err := parseValue(row.Value)
		if err != nil {
			return nil, fmt.Errorf("data: entry %d (t=%s): %w", i, row.T, err)
		}
		entries = append(entries, Entry{T: row.T, V: v})
	}
	return NewArray(entries)
}

func parseValue(raw json.RawMessage) (vql.Val, error) {
	s := strings.TrimSpace(string(raw))
	switch {
	case s == "" || s == "null":
		return vql.NullV(), nil
	case s == "true":
		return vql.BoolV(true), nil
	case s == "false":
		return vql.BoolV(false), nil
	case strings.HasPrefix(s, `"`):
		var str string
		if err := json.Unmarshal(raw, &str); err != nil {
			return vql.Val{}, err
		}
		return vql.StrV(str), nil
	case strings.HasPrefix(s, "["):
		var boxes []jsonBox
		if err := json.Unmarshal(raw, &boxes); err != nil {
			return vql.Val{}, fmt.Errorf("box list: %w", err)
		}
		out := make([]raster.Box, len(boxes))
		for i, b := range boxes {
			out[i] = raster.Box{X: b.X, Y: b.Y, W: b.W, H: b.H, Class: b.Class, Track: b.Track}
		}
		return vql.BoxesV(out), nil
	default:
		var n float64
		if err := json.Unmarshal(raw, &n); err != nil {
			return vql.Val{}, fmt.Errorf("unsupported value %s", s)
		}
		r, err := rational.Parse(strconv.FormatFloat(n, 'f', -1, 64))
		if err != nil {
			return vql.Val{}, fmt.Errorf("number %s: %w", s, err)
		}
		return vql.NumV(r), nil
	}
}

// MarshalJSON writes the array in the annotation file format, so arrays can
// be generated programmatically (dataset generators) and saved. A number is
// written as its nearest float64, so one with no finite decimal form (1/3)
// does not survive a save and load.
func (a *Array) MarshalJSON() ([]byte, error) {
	rows := make([]jsonEntry, len(a.entries))
	for i, e := range a.entries {
		var raw []byte
		var err error
		switch e.V.Type {
		case vql.TypeBool:
			raw, err = json.Marshal(e.V.Bool)
		case vql.TypeNum:
			raw, err = json.Marshal(e.V.Num.Float())
		case vql.TypeStr:
			raw, err = json.Marshal(e.V.Str)
		case vql.TypeBoxes:
			boxes := make([]jsonBox, len(e.V.Boxes))
			for j, b := range e.V.Boxes {
				boxes[j] = jsonBox{X: b.X, Y: b.Y, W: b.W, H: b.H, Class: b.Class, Track: b.Track}
			}
			raw, err = json.Marshal(boxes)
		default:
			raw = []byte("null")
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
