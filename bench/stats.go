package main

import (
	"math"
	"sort"
	"time"
)

// percentile estimates the p-th percentile of sorted as the mean of the
// empirical quantile function over a band around p: each order statistic
// counts by the share of its 1/n step that lies inside the band. Op costs
// cluster by query class, and a single order statistic that falls between
// two clusters jumps from one to the other on the smallest timing noise. A
// pass runs whole rounds of a fixed mix, so each class holds the same share
// of the band in every run, however many rounds fit, and the band's mean is
// steady where the single sample is not.
//
// The band reaches half the distance to the nearer end on each side, at
// most 10 points: [40, 60] for the median, [85, 95] for the 90th
// percentile. A sample quantile's error grows with sqrt(p(1-p)), so the
// median takes the wider band, and the 90th percentile keeps clear of the
// slowest samples.
func percentile(sorted []float64, p float64) float64 {
	n := float64(len(sorted))
	half := math.Min(10, math.Min(p, 100-p)/2)
	lo, hi := (p-half)/100, (p+half)/100
	var total float64
	for i, v := range sorted {
		// Order statistic i+1 is the quantile function on (i/n, (i+1)/n].
		overlap := math.Min(hi, float64(i+1)/n) - math.Max(lo, float64(i)/n)
		if overlap > 0 {
			total += overlap * v
		}
	}
	return total / (hi - lo)
}

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) — the one the
// driver's spread rule uses — so a spread computed here matches one
// computed there. Fewer than two samples return the sample (or zero) for
// all three.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// spread is the driver's steadiness measure: the distance between the
// first and third quartile as a share of the median.
func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// millis and micros convert a duration to the float units metrics carry.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
