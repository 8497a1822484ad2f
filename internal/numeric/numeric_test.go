package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAlmostEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		tol  float64
		want bool
	}{
		{"identical", 1.5, 1.5, 1e-12, true},
		{"within absolute tol", 1e-10, 0, 1e-9, true},
		{"outside absolute tol", 1e-8, 0, 1e-9, false},
		{"relative on large values", 1e9, 1e9 + 0.5, 1e-9, true},
		{"relative fails on large gap", 1e9, 1.001e9, 1e-9, false},
		{"nan left", math.NaN(), 0, 1, false},
		{"nan right", 0, math.NaN(), 1, false},
		{"nan both", math.NaN(), math.NaN(), 1, false},
		{"same infinities", math.Inf(1), math.Inf(1), 1e-9, true},
		{"opposite infinities", math.Inf(1), math.Inf(-1), 1e-9, false},
		{"inf vs finite", math.Inf(1), 1e300, 1e-9, false},
		{"negative pair", -3.0, -3.0 + 1e-12, 1e-9, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := AlmostEqual(tt.a, tt.b, tt.tol); got != tt.want {
				t.Errorf("AlmostEqual(%v, %v, %v) = %v, want %v", tt.a, tt.b, tt.tol, got, tt.want)
			}
		})
	}
}

func TestAlmostEqualSymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		return AlmostEqual(a, b, 1e-9) == AlmostEqual(b, a, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
		{0, 0, 0, 0},
		{math.Inf(1), 0, 10, 10},
		{math.Inf(-1), 0, 10, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestClampPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp(0, 1, 0) did not panic")
		}
	}()
	Clamp(0, 1, 0)
}

func TestClampWithinBounds(t *testing.T) {
	f := func(v, a, b float64) bool {
		if math.IsNaN(v) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSign(t *testing.T) {
	tests := []struct {
		v    float64
		want int
	}{
		{2.5, 1}, {-2.5, -1}, {0, 0}, {math.Copysign(0, -1), 0},
		{math.Inf(1), 1}, {math.Inf(-1), -1}, {math.NaN(), 0},
	}
	for _, tt := range tests {
		if got := Sign(tt.v); got != tt.want {
			t.Errorf("Sign(%v) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestPow(t *testing.T) {
	tests := []struct {
		name      string
		base, exp float64
		want      float64
	}{
		{"zero to zero is one", 0, 0, 1},
		{"zero to positive", 0, 2.5, 0},
		{"zero to negative", 0, -1, math.Inf(1)},
		{"ordinary", 2, 10, 1024},
		{"fractional exponent", 4, 0.5, 2},
		{"one to anything", 1, 12345.6, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Pow(tt.base, tt.exp); got != tt.want {
				t.Errorf("Pow(%v, %v) = %v, want %v", tt.base, tt.exp, got, tt.want)
			}
		})
	}
	if got := Pow(-2, 2); !math.IsNaN(got) {
		t.Errorf("Pow(-2, 2) = %v, want NaN", got)
	}
}

func TestKahanSumCancellation(t *testing.T) {
	// Summing 1 followed by 1e16 copies of 1e-16 naively loses all of the
	// small terms; the compensated sum must not.
	var k KahanSum
	k.Add(1)
	for i := 0; i < 1_000_000; i++ {
		k.Add(1e-16)
	}
	want := 1 + 1e-10
	if !AlmostEqual(k.Value(), want, 1e-12) {
		t.Errorf("compensated sum = %.17g, want %.17g", k.Value(), want)
	}
}

func TestSumMatchesNaiveOnBenignInput(t *testing.T) {
	got := Sum(1, 2, 3, 4.5)
	if got != 10.5 {
		t.Errorf("Sum = %v, want 10.5", got)
	}
	if Sum() != 0 {
		t.Errorf("empty Sum = %v, want 0", Sum())
	}
}

func TestGeometricSum(t *testing.T) {
	tests := []struct {
		name string
		q    float64
		m    int
		want float64
	}{
		{"empty", 2, 0, 0},
		{"single", 7, 1, 1},
		{"powers of two", 2, 5, 31},
		{"ratio one", 1, 10, 10},
		{"near one uses direct path", 1 + 1e-9, 4, 4 + 6e-9},
		{"ratio below one", 0.5, 4, 1.875},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := GeometricSum(tt.q, tt.m); !AlmostEqual(got, tt.want, 1e-8) {
				t.Errorf("GeometricSum(%v, %d) = %v, want %v", tt.q, tt.m, got, tt.want)
			}
		})
	}
}

func TestGeometricSumPanicsOnNegativeLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GeometricSum(2, -1) did not panic")
		}
	}()
	GeometricSum(2, -1)
}

func TestGeometricSumMatchesDirect(t *testing.T) {
	f := func(qRaw float64, mRaw uint8) bool {
		q := 0.1 + math.Mod(math.Abs(qRaw), 3.0) // q in [0.1, 3.1)
		if math.IsNaN(q) {
			return true
		}
		m := int(mRaw % 30)
		var direct KahanSum
		term := 1.0
		for i := 0; i < m; i++ {
			direct.Add(term)
			term *= q
		}
		return AlmostEqual(GeometricSum(q, m), direct.Value(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinspace(t *testing.T) {
	pts := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(pts) != len(want) {
		t.Fatalf("len = %d, want %d", len(pts), len(want))
	}
	for i := range want {
		if !Close(pts[i], want[i]) {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestLinspaceEndpointsExact(t *testing.T) {
	pts := Linspace(1.1, 9.7, 37)
	if pts[0] != 1.1 || pts[len(pts)-1] != 9.7 {
		t.Errorf("endpoints %v, %v not exact", pts[0], pts[len(pts)-1])
	}
}

func TestLogspace(t *testing.T) {
	pts := Logspace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if !AlmostEqual(pts[i], want[i], 1e-12) {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

// TestLogGridMatchesLinspace pins LogGrid and Logspace to Linspace over
// the log endpoints, exponentiated: the same floats to the bit, the
// last point exactly hi.
func TestLogGridMatchesLinspace(t *testing.T) {
	for _, tc := range []struct {
		lo, hi float64
		num    int
	}{{1, 1e4, 4096}, {1, 1e4, 2}, {0.5, 50, 8}, {1e-3, 7.5, 333}} {
		want := Linspace(math.Log(tc.lo), math.Log(tc.hi), tc.num)
		for i := range want {
			want[i] = math.Exp(want[i])
		}
		want[tc.num-1] = tc.hi
		g := NewLogGrid(tc.lo, tc.hi, tc.num)
		got := Logspace(tc.lo, tc.hi, tc.num)
		if g.Len() != tc.num || len(got) != tc.num {
			t.Fatalf("%+v: Len %d, Logspace length %d", tc, g.Len(), len(got))
		}
		for i := range want {
			if g.At(i) != want[i] || got[i] != want[i] {
				t.Fatalf("%+v: point %d: At %v, Logspace %v, want %v", tc, i, g.At(i), got[i], want[i])
			}
		}
	}
}

func TestLogspacePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Logspace(0, 1, 3) did not panic")
		}
	}()
	Logspace(0, 1, 3)
}
