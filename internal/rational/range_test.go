package rational

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func ratRange(start, end, stepNum, stepDen int64) Range {
	return NewRange(FromInt(start), FromInt(end), New(stepNum, stepDen))
}

func TestRangeCountAndAt(t *testing.T) {
	r := NewRange(Zero, FromInt(10), New(1, 30)) // 10 s at 30 fps
	if got := r.Count(); got != 300 {
		t.Fatalf("Count = %d, want 300", got)
	}
	if !r.At(0).Equal(Zero) {
		t.Errorf("At(0) = %v", r.At(0))
	}
	if !r.At(299).Equal(New(299, 30)) {
		t.Errorf("At(299) = %v", r.At(299))
	}
	if !r.Last().Equal(New(299, 30)) {
		t.Errorf("Last = %v", r.Last())
	}
}

func TestRangeCountNonIntegerSpan(t *testing.T) {
	// End not on a sample boundary: Range(0, 1/2, 1/3) = {0, 1/3}.
	r := NewRange(Zero, New(1, 2), New(1, 3))
	if got := r.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

func TestRangeEmpty(t *testing.T) {
	if !NewRange(FromInt(5), FromInt(5), One).Empty() {
		t.Error("equal bounds should be empty")
	}
	if !NewRange(FromInt(6), FromInt(5), One).Empty() {
		t.Error("inverted bounds should be empty")
	}
	if NewRange(Zero, One, One).Empty() {
		t.Error("Range(0,1,1) should have one sample")
	}
}

func TestRangeStepMustBePositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero step did not panic")
		}
	}()
	NewRange(Zero, One, Zero)
}

func TestRangeContains(t *testing.T) {
	r := NewRange(FromInt(2), FromInt(4), New(1, 4))
	for _, want := range []string{"2", "9/4", "5/2", "11/4", "3", "13/4", "7/2", "15/4"} {
		w, _ := Parse(want)
		if !r.Contains(w) {
			t.Errorf("Contains(%s) = false", want)
		}
	}
	for _, miss := range []Rat{New(17, 8), FromInt(4), New(7, 4), FromInt(5)} {
		if r.Contains(miss) {
			t.Errorf("Contains(%v) = true", miss)
		}
	}
}

func TestRangeShiftAndInterval(t *testing.T) {
	r := NewRange(Zero, FromInt(2), New(1, 2))
	s := r.Shift(FromInt(10))
	if !s.Start.Equal(FromInt(10)) || !s.End.Equal(FromInt(12)) {
		t.Errorf("Shift = %v", s)
	}
	iv := r.Interval()
	if !iv.Lo.Equal(Zero) || !iv.Hi.Equal(FromInt(2)) {
		t.Errorf("Interval = %v", iv)
	}
	if !NewRange(One, One, One).Interval().Empty() {
		t.Error("empty range interval should be empty")
	}
}

func TestRangeTimes(t *testing.T) {
	r := NewRange(Zero, One, New(1, 3))
	ts := r.Times()
	if len(ts) != 3 {
		t.Fatalf("Times len = %d", len(ts))
	}
	want := []Rat{Zero, New(1, 3), New(2, 3)}
	for i := range want {
		if !ts[i].Equal(want[i]) {
			t.Errorf("Times[%d] = %v, want %v", i, ts[i], want[i])
		}
	}
}

func TestIntervalOps(t *testing.T) {
	a := Interval{Lo: Zero, Hi: FromInt(10)}
	b := Interval{Lo: FromInt(5), Hi: FromInt(15)}
	got := a.Intersect(b)
	if !got.Lo.Equal(FromInt(5)) || !got.Hi.Equal(FromInt(10)) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("Overlaps should be true")
	}
	c := Interval{Lo: FromInt(10), Hi: FromInt(20)}
	if a.Overlaps(c) {
		t.Error("half-open touch should not overlap")
	}
	if !a.Contains(Zero) || a.Contains(FromInt(10)) {
		t.Error("half-open containment wrong")
	}
	if !a.Len().Equal(FromInt(10)) {
		t.Errorf("Len = %v", a.Len())
	}
	if !(Interval{}).Empty() {
		t.Error("zero interval should be empty")
	}
}

func iv(lo, hi int64) Interval { return Interval{Lo: FromInt(lo), Hi: FromInt(hi)} }

func TestRangeSetNormalization(t *testing.T) {
	s := NewRangeSet(iv(5, 10), iv(0, 3), iv(3, 5), iv(20, 20), iv(12, 15))
	if got, want := s.String(), "{[0, 10) ∪ [12, 15)}"; got != want {
		t.Errorf("normalized = %s, want %s", got, want)
	}
}

func TestRangeSetOps(t *testing.T) {
	a := NewRangeSet(iv(0, 10), iv(20, 30))
	b := NewRangeSet(iv(5, 25))

	union := a.Union(b)
	if !union.Equal(NewRangeSet(iv(0, 30))) {
		t.Errorf("union = %v", union)
	}
	inter := a.Intersect(b)
	if !inter.Equal(NewRangeSet(iv(5, 10), iv(20, 25))) {
		t.Errorf("intersect = %v", inter)
	}
	diff := a.Subtract(b)
	if !diff.Equal(NewRangeSet(iv(0, 5), iv(25, 30))) {
		t.Errorf("subtract = %v", diff)
	}
	if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
		t.Error("intersection should be subset of both")
	}
	if a.SubsetOf(b) {
		t.Error("a should not be subset of b")
	}
	if !a.Contains(FromInt(29)) || a.Contains(FromInt(15)) {
		t.Error("Contains wrong")
	}
}

func TestRangeSetShift(t *testing.T) {
	a := NewRangeSet(iv(0, 5)).Shift(FromInt(100))
	if !a.Equal(NewRangeSet(iv(100, 105))) {
		t.Errorf("shift = %v", a)
	}
}

func TestRangeSetEmpty(t *testing.T) {
	var s RangeSet
	if !s.Empty() {
		t.Error("zero RangeSet should be empty")
	}
	if !s.SubsetOf(NewRangeSet(iv(0, 1))) {
		t.Error("empty is subset of everything")
	}
	if s.Contains(Zero) {
		t.Error("empty contains nothing")
	}
	if s.String() != "{}" {
		t.Errorf("String = %q", s.String())
	}
}

// quickSet draws a random small RangeSet for property tests.
type quickSet struct{ S RangeSet }

func (quickSet) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(4)
	ivs := make([]Interval, n)
	for i := range ivs {
		lo := r.Int63n(40)
		ivs[i] = Interval{Lo: New(lo, 1+r.Int63n(3)), Hi: New(lo+r.Int63n(20), 1+r.Int63n(3))}
	}
	return reflect.ValueOf(quickSet{NewRangeSet(ivs...)})
}

func TestPropertyRangeSetAlgebra(t *testing.T) {
	if err := quick.Check(func(qa, qb, qc quickSet) bool {
		a, b, c := qa.S, qb.S, qc.S
		// Commutativity and associativity of union/intersection.
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			return false
		}
		// De Morgan-ish: a \ (b ∪ c) == (a \ b) \ c.
		if !a.Subtract(b.Union(c)).Equal(a.Subtract(b).Subtract(c)) {
			return false
		}
		// a = (a ∩ b) ∪ (a \ b).
		if !a.Intersect(b).Union(a.Subtract(b)).Equal(a) {
			return false
		}
		// Subset relations.
		if !a.Intersect(b).SubsetOf(a) || !a.SubsetOf(a.Union(b)) {
			return false
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyRangeSetContainsMatchesOps(t *testing.T) {
	if err := quick.Check(func(qa, qb quickSet, pt uint8) bool {
		a, b := qa.S, qb.S
		t0 := New(int64(pt)%60, 2)
		inU := a.Union(b).Contains(t0)
		inI := a.Intersect(b).Contains(t0)
		inD := a.Subtract(b).Contains(t0)
		ca, cb := a.Contains(t0), b.Contains(t0)
		return inU == (ca || cb) && inI == (ca && cb) && inD == (ca && !cb)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyRangeIntervalCoversSamples(t *testing.T) {
	if err := quick.Check(func(s, n, num, den uint8) bool {
		r := NewRange(FromInt(int64(s%20)), FromInt(int64(s%20)+int64(n%10)), New(1+int64(num%5), 1+int64(den%5)))
		ivl := r.Interval()
		for i := 0; i < r.Count(); i++ {
			if !ivl.Contains(r.At(i)) {
				return false
			}
			if !r.Contains(r.At(i)) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeString(t *testing.T) {
	got := NewRange(Zero, FromInt(600), New(1, 30)).String()
	if got != "Range(0, 600, 1/30)" {
		t.Errorf("String = %q", got)
	}
}

var _ = ratRange // silence helper if unused in some builds
