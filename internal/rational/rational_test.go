package rational

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

// genRat draws a small random rational so products stay far from overflow.
func genRat(r *rand.Rand) Rat {
	return New(r.Int63n(2001)-1000, r.Int63n(1000)+1)
}

// quickRat adapts genRat for testing/quick value generation.
type quickRat struct{ R Rat }

func (quickRat) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickRat{genRat(r)})
}

func TestNewReduces(t *testing.T) {
	cases := []struct {
		num, den int64
		wantN    int64
		wantD    int64
	}{
		{6, 4, 3, 2},
		{-6, 4, -3, 2},
		{6, -4, -3, 2},
		{-6, -4, 3, 2},
		{0, 5, 0, 1},
		{7, 7, 1, 1},
		{30000, 1001, 30000, 1001},
	}
	for _, c := range cases {
		got := New(c.num, c.den)
		if got.Num() != c.wantN || got.Den() != c.wantD {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d", c.num, c.den, got.Num(), got.Den(), c.wantN, c.wantD)
		}
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1,0) did not panic")
		}
	}()
	New(1, 0)
}

func TestZeroValueBehavesAsZero(t *testing.T) {
	var z Rat
	if !z.Equal(Zero) {
		t.Errorf("zero value != Zero")
	}
	if got := z.Add(One); !got.Equal(One) {
		t.Errorf("0+1 = %v", got)
	}
	if z.String() != "0" {
		t.Errorf("zero String = %q", z.String())
	}
	if z.Den() != 1 {
		t.Errorf("zero Den = %d", z.Den())
	}
}

func TestArithmetic(t *testing.T) {
	a := New(1, 3)
	b := New(1, 6)
	if got := a.Add(b); !got.Equal(New(1, 2)) {
		t.Errorf("1/3+1/6 = %v", got)
	}
	if got := a.Sub(b); !got.Equal(New(1, 6)) {
		t.Errorf("1/3-1/6 = %v", got)
	}
	if got := a.Mul(b); !got.Equal(New(1, 18)) {
		t.Errorf("1/3*1/6 = %v", got)
	}
	if got := a.Div(b); !got.Equal(FromInt(2)) {
		t.Errorf("(1/3)/(1/6) = %v", got)
	}
	if got := New(-3, 4).Div(New(-1, 2)); !got.Equal(New(3, 2)) {
		t.Errorf("(-3/4)/(-1/2) = %v", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	One.Div(Zero)
}

func TestFloorCeil(t *testing.T) {
	cases := []struct {
		r     Rat
		floor int64
		ceil  int64
	}{
		{New(7, 2), 3, 4},
		{New(-7, 2), -4, -3},
		{FromInt(5), 5, 5},
		{FromInt(-5), -5, -5},
		{Zero, 0, 0},
		{New(1, 3), 0, 1},
		{New(-1, 3), -1, 0},
	}
	for _, c := range cases {
		if got := c.r.Floor(); got != c.floor {
			t.Errorf("Floor(%v) = %d, want %d", c.r, got, c.floor)
		}
		if got := c.r.Ceil(); got != c.ceil {
			t.Errorf("Ceil(%v) = %d, want %d", c.r, got, c.ceil)
		}
	}
}

func TestCmpAndOrderingHelpers(t *testing.T) {
	a, b := New(29970, 1000), New(2997, 100)
	if a.Cmp(b) != 0 {
		t.Errorf("29.970 != 29.97")
	}
	if !New(1, 3).Less(New(1, 2)) {
		t.Errorf("1/3 !< 1/2")
	}
	if got := New(1, 3).Max(New(1, 2)); !got.Equal(New(1, 2)) {
		t.Errorf("Max = %v", got)
	}
	if got := New(1, 3).Min(New(1, 2)); !got.Equal(New(1, 3)) {
		t.Errorf("Min = %v", got)
	}
}

// Cmp is exact for every pair of int64 rationals: math/big is the
// oracle, on the cases whose cross products overflow int64 and on seeded
// random pairs with numerators and denominators near ±2⁶³.
func TestCmpExactNearInt64Limits(t *testing.T) {
	oracle := func(a, b Rat) int {
		return new(big.Rat).SetFrac64(a.Num(), a.Den()).Cmp(new(big.Rat).SetFrac64(b.Num(), b.Den()))
	}
	pairs := [][2]Rat{
		{New(1, 4000000007), New(1, 4000000009)},
		{New(-1, 4000000007), New(-1, 4000000009)},
		{New(math.MaxInt64-1, 1), FromInt(-3)},
		{FromInt(math.MinInt64 + 1), New(math.MaxInt64, 2)},
		{New(math.MaxInt64, math.MaxInt64-1), New(math.MaxInt64-1, math.MaxInt64-2)},
	}
	rng := rand.New(rand.NewSource(1))
	near := func() int64 { return math.MaxInt64 - rng.Int63n(1<<20) }
	for range 2000 {
		a, b := near(), near()
		if rng.Intn(2) == 0 {
			a = -a
		}
		if rng.Intn(2) == 0 {
			b = -b
		}
		// Half the pairs get small denominators, so integers near the
		// limits meet fractions just above zero.
		da, db := near(), near()
		if rng.Intn(2) == 0 {
			da, db = rng.Int63n(1000)+1, rng.Int63n(1000)+1
		}
		pairs = append(pairs, [2]Rat{New(a, da), New(b, db)})
	}
	for _, p := range pairs {
		for _, q := range [][2]Rat{p, {p[1], p[0]}, {p[0], p[0]}} {
			if got, want := q[0].Cmp(q[1]), oracle(q[0], q[1]); got != want {
				t.Fatalf("(%v).Cmp(%v) = %d, want %d", q[0], q[1], got, want)
			}
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Rat
	}{
		{"3", FromInt(3)},
		{"-3", FromInt(-3)},
		{"3/4", New(3, 4)},
		{" 3 / 4 ", New(3, 4)},
		{"29.97", New(2997, 100)},
		{"-0.5", New(-1, 2)},
		{"0.125", New(1, 8)},
		{"10.", FromInt(10)},
		{"1/-2", New(-1, 2)},
		// Past int64 before reducing, inside it after.
		{"9223372036854775808/2", FromInt(1 << 62)},
		{"0.10000000000000000000000", New(1, 10)},
		{"0.0000000000000000005", New(1, 2000000000000000000)},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "1/0", "1/x", "1.x", "--2", ".", "1.-5",
		// No int64 num/den: these once wrapped to negative numbers.
		"0.1234567890123456789", "12345678901.123456789", "0.0000000000000000001",
		"9223372036854775808", "1/9223372036854775808"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, r := range []Rat{Zero, One, New(-7, 3), New(30000, 1001)} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal %v: %v", r, err)
		}
		var got Rat
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if !got.Equal(r) {
			t.Errorf("roundtrip %v -> %s -> %v", r, b, got)
		}
	}
	// Alternate accepted encodings.
	var r Rat
	if err := json.Unmarshal([]byte(`"3/4"`), &r); err != nil || !r.Equal(New(3, 4)) {
		t.Errorf(`unmarshal "3/4" = %v, %v`, r, err)
	}
	if err := json.Unmarshal([]byte(`5`), &r); err != nil || !r.Equal(FromInt(5)) {
		t.Errorf(`unmarshal 5 = %v, %v`, r, err)
	}
	if err := json.Unmarshal([]byte(`[1,0]`), &r); err == nil {
		t.Error("unmarshal [1,0] succeeded, want error")
	}
}

func TestPropertyFieldLaws(t *testing.T) {
	// Commutativity, associativity, distributivity, inverses.
	if err := quick.Check(func(qa, qb, qc quickRat) bool {
		a, b, c := qa.R, qb.R, qc.R
		if !a.Add(b).Equal(b.Add(a)) {
			return false
		}
		if !a.Mul(b).Equal(b.Mul(a)) {
			return false
		}
		if !a.Add(b).Add(c).Equal(a.Add(b.Add(c))) {
			return false
		}
		if !a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c))) {
			return false
		}
		if !a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c))) {
			return false
		}
		if !a.Sub(a).Equal(Zero) {
			return false
		}
		if a.Sign() != 0 && !a.Div(a).Equal(One) {
			return false
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyReducedInvariant(t *testing.T) {
	if err := quick.Check(func(qa, qb quickRat) bool {
		for _, r := range []Rat{qa.R.Add(qb.R), qa.R.Mul(qb.R), qa.R.Sub(qb.R)} {
			if r.Den() <= 0 {
				return false
			}
			if gcd(abs(r.Num()), r.Den()) != 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyFloorCeilBounds(t *testing.T) {
	if err := quick.Check(func(qa quickRat) bool {
		r := qa.R
		f, c := FromInt(r.Floor()), FromInt(r.Ceil())
		return f.LessEq(r) && r.LessEq(c) && c.Sub(f).LessEq(One)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyParseStringRoundTrip(t *testing.T) {
	if err := quick.Check(func(qa quickRat) bool {
		got, err := Parse(qa.R.String())
		return err == nil && got.Equal(qa.R)
	}, nil); err != nil {
		t.Error(err)
	}
}

// decimalNumeral is the grammar Parse reads without a '/': a signed run of
// digits with at most one '.', and at least one digit.
var decimalNumeral = regexp.MustCompile(`^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)$`)

// bigParse is Parse's reference: the same grammar, evaluated in math/big.
func bigParse(s string) (*big.Rat, bool) {
	s = strings.TrimSpace(s)
	if n, d, ok := strings.Cut(s, "/"); ok {
		bn, nok := new(big.Int).SetString(strings.TrimSpace(n), 10)
		bd, dok := new(big.Int).SetString(strings.TrimSpace(d), 10)
		if !nok || !dok || bd.Sign() == 0 {
			return nil, false
		}
		return new(big.Rat).SetFrac(bn, bd), true
	}
	if !decimalNumeral.MatchString(s) {
		return nil, false
	}
	return new(big.Rat).SetString(s)
}

// FuzzRationalParse checks Parse against math/big: a result equals big's
// value, and Parse fails exactly where the input is no numeral or big's
// value has no int64 numerator or denominator.
func FuzzRationalParse(f *testing.F) {
	for _, s := range []string{"3", "-3", "+3", "3/4", " 3 / 4 ", "1/-2", "29.97", "-0.5", ".5", "10.",
		"0.1234567890123456789", "12345678901.123456789", "0.0000000000000000001",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808/2",
		"0.1180591620717411303424", "1/0", "x", "--2", "1e5", "0x10"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := Parse(s)
		want, ok := bigParse(s)
		switch {
		case !ok:
			if err == nil {
				t.Fatalf("Parse(%q) = %v, want a syntax error", s, got)
			}
		case !want.Num().IsInt64() || !want.Denom().IsInt64():
			if err == nil {
				t.Fatalf("Parse(%q) = %v, want an error: %v does not fit int64", s, got, want)
			}
		case err != nil:
			t.Fatalf("Parse(%q): %v, want %v", s, err, want)
		case got.Num() != want.Num().Int64() || got.Den() != want.Denom().Int64():
			t.Fatalf("Parse(%q) = %v, want %v", s, got, want)
		}
	})
}
