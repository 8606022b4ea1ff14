package data

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"v2v/internal/raster"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

func rat(n, d int64) rational.Rat { return rational.New(n, d) }

func num(n int64) vql.Val { return vql.NumV(rational.FromInt(n)) }

// TestValueTruthy: a value read from JSON is as truthy as the evaluator
// reads it — false, 0, "", [] and null are false.
func TestValueTruthy(t *testing.T) {
	cases := map[string]bool{
		`null`: false, `true`: true, `false`: false, `0`: false, `-1`: true, `0.5`: true,
		`""`: false, `"x"`: true, `[]`: false, `[{"w":1,"h":1}]`: true,
	}
	for raw, want := range cases {
		a, err := ParseJSON([]byte(`[{"t":[0,1],"value":` + raw + `}]`))
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if v, _ := a.At(rational.Zero); v.Truthy() != want {
			t.Errorf("Truthy(%s) = %v", raw, !want)
		}
	}
}

// TestValueEqual: a JSON number is the exact rational of its shortest
// decimal, so it equals the same number written in VQL.
func TestValueEqual(t *testing.T) {
	for raw, want := range map[string]rational.Rat{
		`0.1`: rat(1, 10), `2.5`: rat(5, 2), `-2.25`: rat(-9, 4), `1e-3`: rat(1, 1000),
		`3`: rat(3, 1), `0.3333333333333333`: rat(3333333333333333, 10000000000000000),
	} {
		a, err := ParseJSON([]byte(`[{"t":[0,1],"value":` + raw + `}]`))
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if v, _ := a.At(rational.Zero); v.Type != vql.TypeNum || !v.Num.Equal(want) {
			t.Errorf("%s loads as %v, want %v", raw, v, want)
		}
	}
}

// TestJSONNumberWithoutRationalForm: a number no int64 num/den can hold
// fails the load, and the error names the entry.
func TestJSONNumberWithoutRationalForm(t *testing.T) {
	for _, raw := range []string{`1e300`, `1e-300`, `1e19`} {
		_, err := ParseJSON([]byte(`[{"t":[0,1],"value":1},{"t":[1,30],"value":` + raw + `}]`))
		if err == nil || !strings.Contains(err.Error(), "entry 1 (t=1/30)") {
			t.Errorf("%s: err = %v, want an error naming entry 1 (t=1/30)", raw, err)
		}
	}
}

func TestNewArraySortsAndRejectsDuplicates(t *testing.T) {
	a, err := NewArray([]Entry{
		{T: rat(2, 1), V: num(2)},
		{T: rat(0, 1), V: num(0)},
		{T: rat(1, 1), V: num(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	es := a.Entries()
	for i := 0; i < 3; i++ {
		if !es[i].T.Equal(rational.FromInt(int64(i))) {
			t.Errorf("entry %d time = %v", i, es[i].T)
		}
	}
	if _, err := NewArray([]Entry{{T: rat(1, 2)}, {T: rat(2, 4)}}); err == nil {
		t.Error("duplicate rational timestamps should be rejected")
	}
}

func TestArrayAt(t *testing.T) {
	a, _ := NewArray([]Entry{
		{T: rat(0, 1), V: num(10)},
		{T: rat(1, 30), V: num(11)},
		{T: rat(2, 30), V: num(12)},
	})
	if v, ok := a.At(rat(1, 30)); !ok || !v.Num.Equal(rational.FromInt(11)) {
		t.Errorf("At(1/30) = %v,%v", v, ok)
	}
	if _, ok := a.At(rat(1, 60)); ok {
		t.Error("missing time should not be found")
	}
	if a.Len() != 3 {
		t.Errorf("Len = %d", a.Len())
	}
}

func TestParseJSONAllKinds(t *testing.T) {
	raw := []byte(`[
		{"t": [0,1], "value": null},
		{"t": [1,30], "value": true},
		{"t": [2,30], "value": 3.5},
		{"t": [3,30], "value": "zebra"},
		{"t": [4,30], "value": [{"x":10,"y":20,"w":30,"h":40,"class":"ZEBRA","track":7}]}
	]`)
	a, err := ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 5 {
		t.Fatalf("Len = %d", a.Len())
	}
	if v, _ := a.At(rat(0, 1)); v.Type != vql.TypeNull {
		t.Errorf("null entry = %v", v)
	}
	if v, _ := a.At(rat(1, 30)); v.Type != vql.TypeBool || !v.Bool {
		t.Errorf("bool entry = %v", v)
	}
	if v, _ := a.At(rat(2, 30)); v.Type != vql.TypeNum || !v.Num.Equal(rat(7, 2)) {
		t.Errorf("num entry = %v", v)
	}
	if v, _ := a.At(rat(3, 30)); v.Type != vql.TypeStr || v.Str != "zebra" {
		t.Errorf("str entry = %v", v)
	}
	v, _ := a.At(rat(4, 30))
	if v.Type != vql.TypeBoxes || len(v.Boxes) != 1 {
		t.Fatalf("boxes entry = %v", v)
	}
	b := v.Boxes[0]
	if b.X != 10 || b.Y != 20 || b.W != 30 || b.H != 40 || b.Class != "ZEBRA" || b.Track != 7 {
		t.Errorf("box = %+v", b)
	}
}

func TestParseJSONErrors(t *testing.T) {
	for name, raw := range map[string]string{
		"not json":  "nope",
		"bad value": `[{"t":[0,1],"value":{"x":1}}]`,
		"bad boxes": `[{"t":[0,1],"value":[{"x":"no"}]}]`,
		"dup times": `[{"t":[0,1],"value":1},{"t":[0,1],"value":2}]`,
	} {
		if _, err := ParseJSON([]byte(raw)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a, _ := NewArray([]Entry{
		{T: rat(0, 1), V: vql.NullV()},
		{T: rat(1, 3), V: vql.BoolV(false)},
		{T: rat(2, 3), V: vql.NumV(rat(-9, 4))},
		{T: rat(1, 1), V: vql.StrV("hi")},
		{T: rat(4, 3), V: vql.BoxesV([]raster.Box{{X: 1, Y: 2, W: 3, H: 4, Class: "C", Track: 9}, {X: 5, Y: 6, W: 7, H: 8}})},
	})
	path := filepath.Join(t.TempDir(), "ann.json")
	if err := a.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != a.Len() {
		t.Fatalf("Len = %d", got.Len())
	}
	for i, e := range a.Entries() {
		ge := got.Entries()[i]
		if !ge.T.Equal(e.T) || !reflect.DeepEqual(ge.V, e.V) {
			t.Errorf("entry %d: %v %v vs %v %v", i, ge.T, ge.V, e.T, e.V)
		}
	}
}

func TestLoadJSONMissingFile(t *testing.T) {
	if _, err := LoadJSON(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file should error")
	}
}

// TestValueString: a loaded value prints as the evaluator's value; a number
// as its exact rational.
func TestValueString(t *testing.T) {
	a, err := ParseJSON([]byte(`[{"t":[0,1],"value":null},{"t":[1,1],"value":true},{"t":[2,1],"value":0.5},
		{"t":[3,1],"value":"a"},{"t":[4,1],"value":[{"w":1,"h":1}]}]`))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"null", "true", "1/2", `"a"`, "boxes(1)"} {
		if got := a.Entries()[i].V.String(); got != want {
			t.Errorf("entry %d prints %s, want %s", i, got, want)
		}
	}
}
