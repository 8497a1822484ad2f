// Package numeric provides the small numerical substrate used by every
// analytic module in this repository: floating-point comparison helpers,
// compensated summation, geometric sequences, and guarded power/log
// evaluation for the closed forms of the paper.
//
// All routines operate on float64 and are deterministic; none of them
// allocate except where documented.
package numeric

import (
	"errors"
	"math"
)

// DefaultTol is the tolerance used by the convenience comparison helpers.
// It is appropriate for quantities of magnitude O(1..100), which covers
// every competitive ratio and expansion factor in the paper.
const DefaultTol = 1e-9

// ErrNoConvergence is returned by iterative routines that exhaust their
// iteration budget before meeting their tolerance.
var ErrNoConvergence = errors.New("numeric: iteration did not converge")

// AlmostEqual reports whether a and b are equal within tol, using a
// combined absolute/relative criterion: |a-b| <= tol * max(1, |a|, |b|).
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Close is AlmostEqual with DefaultTol.
func Close(a, b float64) bool { return AlmostEqual(a, b, DefaultTol) }

// Clamp limits v to the interval [lo, hi]. It panics if lo > hi, which is
// always a programming error.
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		panic("numeric: Clamp with lo > hi")
	}
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// Sign returns -1, 0 or +1 according to the sign of v. Signed zeros both
// map to 0.
func Sign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// Pow evaluates base**exp with the conventions needed by the paper's
// closed forms:
//
//   - 0**0 = 1 (the limit used for the a -> 2 endpoint of Figure 5 right),
//   - 0**positive = 0,
//   - negative bases are rejected (the formulas never produce them for
//     valid parameters), returning NaN so the error surfaces in tests.
func Pow(base, exp float64) float64 {
	if base < 0 {
		return math.NaN()
	}
	if base == 0 {
		if exp == 0 {
			return 1
		}
		if exp > 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Pow(base, exp)
}

// KahanSum accumulates a running sum with Neumaier's improved
// compensation. The zero value is ready to use.
type KahanSum struct {
	sum float64
	c   float64
}

// Add folds v into the sum.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated total.
func (k *KahanSum) Value() float64 { return k.sum + k.c }

// Sum returns the compensated sum of vs.
func Sum(vs ...float64) float64 {
	var k KahanSum
	for _, v := range vs {
		k.Add(v)
	}
	return k.Value()
}

// MeanMinMax returns the compensated (KahanSum) mean of xs and its
// extremes in one pass, folding left to right. Empty xs gives a NaN
// mean, lo = +Inf and hi = -Inf.
func MeanMinMax(xs []float64) (mean, lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	var sum KahanSum
	for _, x := range xs {
		sum.Add(x)
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return sum.Value() / float64(len(xs)), lo, hi
}

// GeometricSum returns 1 + q + q^2 + ... + q^(m-1), computed in closed
// form where numerically safe and by compensated summation otherwise.
// m must be >= 0.
func GeometricSum(q float64, m int) float64 {
	if m < 0 {
		panic("numeric: GeometricSum with negative length")
	}
	if m == 0 {
		return 0
	}
	if math.Abs(q-1) < 1e-8 {
		// Near q = 1 the closed form loses all precision; sum directly.
		var k KahanSum
		term := 1.0
		for i := 0; i < m; i++ {
			k.Add(term)
			term *= q
		}
		return k.Value()
	}
	return (math.Pow(q, float64(m)) - 1) / (q - 1)
}

// Linspace returns num points evenly spaced over [lo, hi] inclusive.
// num must be >= 2.
func Linspace(lo, hi float64, num int) []float64 {
	if num < 2 {
		panic("numeric: Linspace needs at least two points")
	}
	out := make([]float64, num)
	step := (hi - lo) / float64(num-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[num-1] = hi // exact endpoint regardless of rounding
	return out
}

// Logspace returns num points geometrically spaced over [lo, hi]
// inclusive. lo and hi must be positive and num >= 2.
func Logspace(lo, hi float64, num int) []float64 {
	g := NewLogGrid(lo, hi, num)
	pts := make([]float64, num)
	for i := range pts {
		pts[i] = g.At(i)
	}
	return pts
}

// LogGrid is Logspace computed point by point, for scans that walk a
// geometric grid without allocating it. Logspace is built on it, so
// both give the same floats.
type LogGrid struct {
	logLo, step, hi float64
	num             int
}

// NewLogGrid describes num points geometrically spaced over [lo, hi]
// inclusive. lo and hi must be positive and num >= 2.
func NewLogGrid(lo, hi float64, num int) LogGrid {
	if lo <= 0 || hi <= 0 {
		panic("numeric: Logspace needs positive endpoints")
	}
	if num < 2 {
		panic("numeric: Logspace needs at least two points")
	}
	logLo := math.Log(lo)
	return LogGrid{logLo: logLo, step: (math.Log(hi) - logLo) / float64(num-1), hi: hi, num: num}
}

// Len returns the number of grid points.
func (g LogGrid) Len() int { return g.num }

// At returns grid point i, 0 <= i < Len(): the exponential of evenly
// stepped logarithms, with the last point exactly hi.
func (g LogGrid) At(i int) float64 {
	if i == g.num-1 {
		return g.hi
	}
	return math.Exp(g.logLo + float64(i)*g.step)
}
