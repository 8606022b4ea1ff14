package rational

import (
	"fmt"
	"sort"
)

// Range is a set of evenly spaced rationals over a half-open interval:
// {Start + k*Step : k ∈ ℕ, Start + k*Step < End}. This is the paper's
// Range(start, end, step) shorthand used for time domains. A Range with
// Start >= End is empty.
type Range struct {
	Start Rat `json:"start"`
	End   Rat `json:"end"`
	Step  Rat `json:"step"`
}

// NewRange builds Range(start, end, step). It panics if step is not
// strictly positive, which is always a programming error.
func NewRange(start, end, step Rat) Range {
	if step.Sign() <= 0 {
		panic("rational: Range step must be positive")
	}
	return Range{Start: start, End: end, Step: step}
}

// Count returns the number of samples in the range.
func (r Range) Count() int {
	if !r.Start.Less(r.End) {
		return 0
	}
	// ceil((End-Start)/Step)
	return int(r.End.Sub(r.Start).Div(r.Step).Ceil())
}

// Empty reports whether the range contains no samples.
func (r Range) Empty() bool { return r.Count() == 0 }

// At returns the i-th sample, Start + i*Step. It does not bounds-check.
func (r Range) At(i int) Rat {
	return r.Start.Add(r.Step.Mul(FromInt(int64(i))))
}

// Last returns the final sample of a non-empty range.
func (r Range) Last() Rat { return r.At(r.Count() - 1) }

// Contains reports whether t is exactly one of the range's samples.
func (r Range) Contains(t Rat) bool {
	if t.Less(r.Start) || !t.Less(r.End) {
		return false
	}
	k := t.Sub(r.Start).Div(r.Step)
	return k.IsInt()
}

// Times materializes all samples. Intended for small/test ranges and the
// data-only rewrite pass; callers over large domains should iterate with
// Count/At instead.
func (r Range) Times() []Rat {
	n := r.Count()
	out := make([]Rat, n)
	for i := 0; i < n; i++ {
		out[i] = r.At(i)
	}
	return out
}

// Shift returns the range translated by d (affine time shift t+d).
func (r Range) Shift(d Rat) Range {
	return Range{Start: r.Start.Add(d), End: r.End.Add(d), Step: r.Step}
}

// Interval returns the closed-open real interval [Start, End) spanned by
// the range as an Interval, or an empty interval if the range is empty.
func (r Range) Interval() Interval {
	if r.Empty() {
		return Interval{}
	}
	return Interval{Lo: r.Start, Hi: r.Last().Add(r.Step)}
}

func (r Range) String() string {
	return fmt.Sprintf("Range(%s, %s, %s)", r.Start, r.End, r.Step)
}

// Interval is a half-open rational interval [Lo, Hi). An interval with
// Hi <= Lo is empty.
type Interval struct {
	Lo Rat `json:"lo"`
	Hi Rat `json:"hi"`
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return !iv.Lo.Less(iv.Hi) }

// Contains reports whether t ∈ [Lo, Hi).
func (iv Interval) Contains(t Rat) bool {
	return !t.Less(iv.Lo) && t.Less(iv.Hi)
}

// Len returns Hi - Lo (zero for empty intervals).
func (iv Interval) Len() Rat {
	if iv.Empty() {
		return Zero
	}
	return iv.Hi.Sub(iv.Lo)
}

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	lo := iv.Lo.Max(o.Lo)
	hi := iv.Hi.Min(o.Hi)
	if !lo.Less(hi) {
		return Interval{}
	}
	return Interval{Lo: lo, Hi: hi}
}

// Overlaps reports whether the two intervals share any point.
func (iv Interval) Overlaps(o Interval) bool { return !iv.Intersect(o).Empty() }

func (iv Interval) String() string {
	return fmt.Sprintf("[%s, %s)", iv.Lo, iv.Hi)
}

// RangeSet is a normalized union of disjoint, sorted, non-adjacent
// half-open intervals. It is the workhorse of dependency analysis: the
// checker computes, per source video, the RangeSet of times a spec needs,
// and validates it is a subset of what the source provides.
//
// The zero value is the empty set.
type RangeSet struct {
	ivs []Interval
}

// NewRangeSet builds a set from arbitrary intervals, normalizing them.
func NewRangeSet(ivs ...Interval) RangeSet {
	var s RangeSet
	for _, iv := range ivs {
		s = s.Union(RangeSet{ivs: []Interval{iv}}.normalize())
	}
	return s
}

func (s RangeSet) normalize() RangeSet {
	kept := s.ivs[:0:0]
	for _, iv := range s.ivs {
		if !iv.Empty() {
			kept = append(kept, iv)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Lo.Less(kept[j].Lo) })
	var out []Interval
	for _, iv := range kept {
		if n := len(out); n > 0 && !out[n-1].Hi.Less(iv.Lo) {
			if out[n-1].Hi.Less(iv.Hi) {
				out[n-1].Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return RangeSet{ivs: out}
}

// Empty reports whether the set contains no points.
func (s RangeSet) Empty() bool { return len(s.ivs) == 0 }

// Contains reports whether t is in the set.
func (s RangeSet) Contains(t Rat) bool {
	// Binary search the first interval with Hi > t.
	i := sort.Search(len(s.ivs), func(i int) bool { return t.Less(s.ivs[i].Hi) })
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// Union returns s ∪ o.
func (s RangeSet) Union(o RangeSet) RangeSet {
	merged := make([]Interval, 0, len(s.ivs)+len(o.ivs))
	merged = append(merged, s.ivs...)
	merged = append(merged, o.ivs...)
	return RangeSet{ivs: merged}.normalize()
}

// Intersect returns s ∩ o.
func (s RangeSet) Intersect(o RangeSet) RangeSet {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		iv := s.ivs[i].Intersect(o.ivs[j])
		if !iv.Empty() {
			out = append(out, iv)
		}
		if s.ivs[i].Hi.Less(o.ivs[j].Hi) {
			i++
		} else {
			j++
		}
	}
	return RangeSet{ivs: out}
}

// Subtract returns s \ o.
func (s RangeSet) Subtract(o RangeSet) RangeSet {
	var out []Interval
	for _, iv := range s.ivs {
		pieces := []Interval{iv}
		for _, cut := range o.ivs {
			var next []Interval
			for _, p := range pieces {
				if !p.Overlaps(cut) {
					next = append(next, p)
					continue
				}
				if p.Lo.Less(cut.Lo) {
					next = append(next, Interval{Lo: p.Lo, Hi: cut.Lo})
				}
				if cut.Hi.Less(p.Hi) {
					next = append(next, Interval{Lo: cut.Hi, Hi: p.Hi})
				}
			}
			pieces = next
		}
		out = append(out, pieces...)
	}
	return RangeSet{ivs: out}.normalize()
}

// SubsetOf reports whether every point of s is in o.
func (s RangeSet) SubsetOf(o RangeSet) bool {
	return s.Subtract(o).Empty()
}

// Equal reports whether s and o contain exactly the same points.
func (s RangeSet) Equal(o RangeSet) bool {
	return s.SubsetOf(o) && o.SubsetOf(s)
}

// Shift returns the set translated by d.
func (s RangeSet) Shift(d Rat) RangeSet {
	out := make([]Interval, len(s.ivs))
	for i, iv := range s.ivs {
		out[i] = Interval{Lo: iv.Lo.Add(d), Hi: iv.Hi.Add(d)}
	}
	return RangeSet{ivs: out}
}

func (s RangeSet) String() string {
	if s.Empty() {
		return "{}"
	}
	out := "{"
	for i, iv := range s.ivs {
		if i > 0 {
			out += " ∪ "
		}
		out += iv.String()
	}
	return out + "}"
}
