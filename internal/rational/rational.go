// Package rational implements exact rational arithmetic for media
// timestamps, evenly spaced rational ranges (time domains), and sets of
// rational intervals (RangeSet) used by the V2V dependency analyzer and
// optimizer.
//
// Video timestamps are rationals because common frame rates (24000/1001,
// 30000/1001, ...) are not representable as finite decimals. All arithmetic
// here is exact; overflow is avoided by reducing through the GCD at every
// operation. Values are int64-backed, which covers > 9e18 ticks — far more
// than any realistic media timeline at any timebase this system produces.
package rational

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
)

// Rat is an exact rational number. The zero value is 0/1.
//
// Invariants maintained by all constructors and operations:
// den > 0, and gcd(|num|, den) == 1.
type Rat struct {
	num int64
	den int64
}

// Zero is the rational 0/1.
var Zero = Rat{0, 1}

// One is the rational 1/1.
var One = Rat{1, 1}

// New returns the reduced rational num/den. It panics if den == 0; a zero
// denominator is always a programming error in this codebase.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rational: zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := gcd(abs(num), den)
	return Rat{num / g, den / g}
}

// FromInt returns n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Num returns the reduced numerator (may be negative).
func (r Rat) Num() int64 { return r.num }

// Den returns the reduced denominator (always positive; 1 for the zero value).
func (r Rat) Den() int64 {
	if r.den == 0 {
		return 1
	}
	return r.den
}

// norm returns r with a canonical non-zero denominator so that zero-valued
// Rat structs behave as 0/1.
func (r Rat) norm() Rat {
	if r.den == 0 {
		return Rat{0, 1}
	}
	return r
}

func abs(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// Add returns r + o.
func (r Rat) Add(o Rat) Rat {
	r, o = r.norm(), o.norm()
	g := gcd(r.den, o.den)
	// r.num*(o.den/g) + o.num*(r.den/g) over lcm.
	return New(r.num*(o.den/g)+o.num*(r.den/g), r.den/g*o.den)
}

// Sub returns r - o.
func (r Rat) Sub(o Rat) Rat { return r.Add(o.Neg()) }

// Neg returns -r.
func (r Rat) Neg() Rat { r = r.norm(); return Rat{-r.num, r.den} }

// Mul returns r * o.
func (r Rat) Mul(o Rat) Rat {
	r, o = r.norm(), o.norm()
	g1 := gcd(abs(r.num), o.den)
	g2 := gcd(abs(o.num), r.den)
	return New((r.num/g1)*(o.num/g2), (r.den/g2)*(o.den/g1))
}

// Div returns r / o. It panics if o is zero.
func (r Rat) Div(o Rat) Rat {
	o = o.norm()
	if o.num == 0 {
		panic("rational: division by zero")
	}
	return r.Mul(Rat{o.den, o.num}.canon())
}

// canon fixes sign placement after constructing a raw inverse.
func (r Rat) canon() Rat {
	if r.den < 0 {
		return Rat{-r.num, -r.den}
	}
	return r
}

// Cmp compares r and o, returning -1, 0, or +1.
func (r Rat) Cmp(o Rat) int {
	d := r.Sub(o).norm()
	switch {
	case d.num < 0:
		return -1
	case d.num > 0:
		return 1
	default:
		return 0
	}
}

// Less reports whether r < o.
func (r Rat) Less(o Rat) bool { return r.Cmp(o) < 0 }

// LessEq reports whether r <= o.
func (r Rat) LessEq(o Rat) bool { return r.Cmp(o) <= 0 }

// Equal reports whether r == o as rationals.
func (r Rat) Equal(o Rat) bool { return r.Cmp(o) == 0 }

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	r = r.norm()
	switch {
	case r.num < 0:
		return -1
	case r.num > 0:
		return 1
	default:
		return 0
	}
}

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.norm().den == 1 }

// Floor returns the greatest integer <= r.
func (r Rat) Floor() int64 {
	r = r.norm()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num < 0 {
		q--
	}
	return q
}

// Ceil returns the least integer >= r.
func (r Rat) Ceil() int64 {
	r = r.norm()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num > 0 {
		q++
	}
	return q
}

// Float returns a float64 approximation of r, for display and heuristics
// only — never for timeline arithmetic.
func (r Rat) Float() float64 {
	r = r.norm()
	return float64(r.num) / float64(r.den)
}

// Min returns the smaller of r and o.
func (r Rat) Min(o Rat) Rat {
	if r.Less(o) {
		return r
	}
	return o
}

// Max returns the larger of r and o.
func (r Rat) Max(o Rat) Rat {
	if r.Less(o) {
		return o
	}
	return r
}

// String formats r as "num/den", or "num" when r is an integer.
func (r Rat) String() string {
	r = r.norm()
	if r.den == 1 {
		return strconv.FormatInt(r.num, 10)
	}
	return fmt.Sprintf("%d/%d", r.num, r.den)
}

// Parse parses "num", "num/den", or a decimal like "29.97" into a Rat. A
// value whose reduced numerator or denominator int64 cannot hold is an
// error, never a wrapped-around number.
func Parse(s string) (Rat, error) {
	num, den := strings.TrimSpace(s), "1"
	if i := strings.IndexByte(num, '/'); i >= 0 {
		num, den = strings.TrimSpace(num[:i]), strings.TrimSpace(num[i+1:])
	} else if i := strings.IndexByte(num, '.'); i >= 0 {
		// d.ddd is dddd/10^len(ddd); dropping trailing zeros (but the
		// digit of ".0") keeps 10^k small.
		frac := num[i+1:]
		for len(frac) > 1 && frac[len(frac)-1] == '0' {
			frac = frac[:len(frac)-1]
		}
		num, den = num[:i]+frac, "1"+strings.Repeat("0", len(frac))
	}
	n, nerr := strconv.ParseInt(num, 10, 64)
	d, derr := strconv.ParseInt(den, 10, 64)
	if nerr == nil && derr == nil && n != math.MinInt64 && d != math.MinInt64 {
		if d == 0 {
			return Rat{}, fmt.Errorf("rational: zero denominator in %q", s)
		}
		return New(n, d), nil
	}
	// Past int64 before reducing, or at its edge where New cannot negate:
	// reduce exactly, then refuse what still does not fit.
	bn, nok := new(big.Int).SetString(num, 10)
	bd, dok := new(big.Int).SetString(den, 10)
	switch {
	case !nok || !dok:
		return Rat{}, fmt.Errorf("rational: bad number %q", s)
	case bd.Sign() == 0:
		return Rat{}, fmt.Errorf("rational: zero denominator in %q", s)
	}
	r := new(big.Rat).SetFrac(bn, bd)
	if !r.Num().IsInt64() || !r.Denom().IsInt64() {
		return Rat{}, fmt.Errorf("rational: %q does not fit int64 as num/den", s)
	}
	return Rat{r.Num().Int64(), r.Denom().Int64()}, nil
}

// MarshalJSON encodes r as the two-element array [num, den].
func (r Rat) MarshalJSON() ([]byte, error) {
	r = r.norm()
	return []byte(fmt.Sprintf("[%d,%d]", r.num, r.den)), nil
}

// UnmarshalJSON accepts [num, den], a bare integer, or a "num/den" string.
func (r *Rat) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	switch {
	case strings.HasPrefix(s, "["):
		s = strings.TrimSuffix(strings.TrimPrefix(s, "["), "]")
		parts := strings.Split(s, ",")
		if len(parts) != 2 {
			return fmt.Errorf("rational: want [num,den], got %q", string(b))
		}
		num, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return err
		}
		den, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return err
		}
		if den == 0 {
			return fmt.Errorf("rational: zero denominator in %q", string(b))
		}
		*r = New(num, den)
		return nil
	case strings.HasPrefix(s, `"`):
		v, err := Parse(strings.Trim(s, `"`))
		if err != nil {
			return err
		}
		*r = v
		return nil
	default:
		v, err := Parse(s)
		if err != nil {
			return err
		}
		*r = v
		return nil
	}
}
