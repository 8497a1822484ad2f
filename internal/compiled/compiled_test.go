package compiled_test

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/geom"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

func compilePair(t *testing.T, st strategy.Strategy, n, f int) (*sim.Plan, *compiled.Plan) {
	t.Helper()
	plan, err := sim.FromStrategy(st, n, f)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compiled.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	return plan, cp
}

func TestCompileRejectsNil(t *testing.T) {
	if _, err := compiled.Compile(nil); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestAccessors(t *testing.T) {
	plan, cp := compilePair(t, strategy.Proportional{}, 5, 2)
	if cp.N() != 5 || cp.F() != 2 {
		t.Errorf("N, F = %d, %d", cp.N(), cp.F())
	}
	if cp.Source() != plan {
		t.Error("Source does not return the compiled-from plan")
	}
	if cp.Corners() == 0 {
		t.Error("no corners materialised")
	}
}

// TestTwoGroupRayClosedForm checks the ray tail continuation: targets
// far beyond the (empty) corner prefix are answered by the closed form,
// and equal |x| exactly (CR 1).
func TestTwoGroupRayClosedForm(t *testing.T) {
	_, cp := compilePair(t, strategy.TwoGroup{}, 6, 2)
	for _, x := range []float64{1, -1, 3.75, -1234.5, 9e7} {
		if got := cp.SearchTime(x); got != math.Abs(x) {
			t.Errorf("SearchTime(%g) = %v, want %v", x, got, math.Abs(x))
		}
	}
}

// TestHaltNeverVisitsBeyond checks tailNone: a finite trajectory visits
// nothing outside its swept envelope.
func TestHaltNeverVisitsBeyond(t *testing.T) {
	halt, err := trajectory.NewHalt(geom.Point{X: 2, T: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trajectory.New([]geom.Segment{
		{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: -1, T: 1}},
		{From: geom.Point{X: -1, T: 1}, To: geom.Point{X: 2, T: 5}},
	}, halt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sim.NewPlan([]*trajectory.Trajectory{tr}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compiled.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, -0.5, 0, 1.5, 2} {
		want := plan.SearchTime(x)
		if got := cp.SearchTime(x); got != want {
			t.Errorf("SearchTime(%g) = %v, want %v", x, got, want)
		}
		if math.IsInf(cp.SearchTime(x), 1) {
			t.Errorf("covered target %g reported unreachable", x)
		}
	}
	for _, x := range []float64{-1.5, 2.5, 100} {
		if got := cp.SearchTime(x); !math.IsInf(got, 1) {
			t.Errorf("SearchTime(%g) = %v, want +Inf", x, got)
		}
	}
}

func TestKthDistinctVisitValidatesK(t *testing.T) {
	_, cp := compilePair(t, strategy.Proportional{}, 3, 1)
	for _, k := range []int{0, -1, 4, 100} {
		if _, err := cp.KthDistinctVisit(2, k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
	if _, err := cp.KthDistinctVisit(2, 3); err != nil {
		t.Errorf("k=n rejected: %v", err)
	}
}

// TestEvalManyMatchesSingle checks the batch path (including the
// sorted-targets hint reuse) against one-at-a-time evaluation, in
// sorted, reversed and shuffled orders.
func TestEvalManyMatchesSingle(t *testing.T) {
	plan, cp := compilePair(t, strategy.Proportional{}, 5, 2)

	sorted := make([]float64, 0, 400)
	for i := 0; i < 200; i++ {
		x := math.Pow(10, 4*float64(i)/199)
		sorted = append(sorted, -x, x)
	}
	sort.Float64s(sorted)
	reversed := make([]float64, len(sorted))
	shuffled := make([]float64, len(sorted))
	for i, x := range sorted {
		reversed[len(sorted)-1-i] = x
		shuffled[(i*7919)%len(sorted)] = x
	}

	for name, xs := range map[string][]float64{
		"sorted": sorted, "reversed": reversed, "shuffled": shuffled,
	} {
		got := cp.EvalMany(xs, nil)
		if len(got) != len(xs) {
			t.Fatalf("%s: got %d results for %d targets", name, len(got), len(xs))
		}
		for i, x := range xs {
			want := plan.SearchTime(x)
			if got[i] != want && !(math.IsInf(got[i], 1) && math.IsInf(want, 1)) {
				t.Errorf("%s: EvalMany[%d] (x=%g) = %v, want %v", name, i, x, got[i], want)
			}
		}
	}
}

// TestEvaluatorReuseAcrossTargets checks that a long-lived evaluator
// with warm hints returns the same answers as a fresh one.
func TestEvaluatorReuseAcrossTargets(t *testing.T) {
	plan, cp := compilePair(t, strategy.Doubling{}, 4, 2)
	e := cp.Evaluator()
	defer e.Release()
	xs := []float64{5, -3, 5, 700, -700, 1, 699.5, -2.5}
	for _, x := range xs {
		if got, want := e.SearchTime(x), plan.SearchTime(x); got != want {
			t.Errorf("SearchTime(%g) = %v, want %v", x, got, want)
		}
	}
	// FirstVisit against the underlying trajectories.
	trajs := plan.Trajectories()
	for i, tr := range trajs {
		for _, x := range xs {
			wantT, wantOK := tr.FirstVisit(x)
			gotT, gotOK := e.FirstVisit(i, x)
			if gotOK != wantOK || (wantOK && gotT != wantT) {
				t.Errorf("FirstVisit(%d, %g) = %v,%v want %v,%v", i, x, gotT, gotOK, wantT, wantOK)
			}
		}
	}
	if _, ok := e.FirstVisit(-1, 1); ok {
		t.Error("negative robot index reported a visit")
	}
	if _, ok := e.FirstVisit(len(trajs), 1); ok {
		t.Error("out-of-range robot index reported a visit")
	}
}

// TestSearchTimeZeroAllocs pins the kernel's contract: steady-state
// evaluation through a held evaluator performs no heap allocations, on
// a plan of single-robot groups (A(5, 2)) and on grouped plans (two
// groups, one group of 60).
func TestSearchTimeZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		st   strategy.Strategy
		n, f int
	}{
		{strategy.Proportional{}, 5, 2},
		{strategy.TwoGroup{}, 60, 3},
		{strategy.Doubling{}, 60, 3},
	} {
		_, cp := compilePair(t, tc.st, tc.n, tc.f)
		assertZeroAllocEval(t, fmt.Sprintf("%s(%d,%d)", tc.st.Name(), tc.n, tc.f), cp)
	}
}

// assertZeroAllocEval checks that SearchTime and EvalMany through a
// held evaluator of cp never touch the heap.
func assertZeroAllocEval(t *testing.T, name string, cp *compiled.Plan) {
	t.Helper()
	e := cp.Evaluator()
	defer e.Release()
	xs := []float64{2, -17.5, 400, -8000}
	dst := make([]float64, len(xs))

	if avg := testing.AllocsPerRun(200, func() {
		if e.SearchTime(437.25) <= 0 {
			t.Fatal("bad search time")
		}
	}); avg != 0 {
		t.Errorf("%s: SearchTime allocates %v per op, want 0", name, avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		dst = e.EvalMany(xs, dst)
	}); avg != 0 {
		t.Errorf("%s: EvalMany allocates %v per op, want 0", name, avg)
	}
}

// TestCRMatchesSim checks that the compiled competitive-ratio search
// reproduces sim.EmpiricalCR exactly: same supremum, same witness, same
// candidate count.
func TestCRMatchesSim(t *testing.T) {
	for _, tc := range []struct {
		st   strategy.Strategy
		n, f int
	}{
		{strategy.Proportional{}, 3, 1},
		{strategy.Doubling{}, 4, 2},
		{strategy.TwoGroup{}, 6, 2},
		{strategy.UniformCone{Beta: 3}, 3, 1},
	} {
		plan, cp := compilePair(t, tc.st, tc.n, tc.f)
		opts := sim.CROptions{GridPoints: 512}
		want, err := plan.EmpiricalCR(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cp.CR(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s(%d,%d): compiled CR %+v != sim %+v", tc.st.Name(), tc.n, tc.f, got, want)
		}
		// Single-worker evaluation must agree with the parallel default.
		seq, err := cp.CR(sim.CROptions{GridPoints: 512, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Errorf("%s(%d,%d): sequential compiled CR %+v != sim %+v", tc.st.Name(), tc.n, tc.f, seq, want)
		}
	}
}

// TestSerialCRAllocBound bounds the heap one serial CR call allocates
// on the two-group (60, 3) plan at 4096 grid points. The scan streams
// its 8192 candidates, so it must stay far below the 64 KB a
// materialised candidate (or ratio) slice alone would take.
func TestSerialCRAllocBound(t *testing.T) {
	_, cp := compilePair(t, strategy.TwoGroup{}, 60, 3)
	opts := sim.CROptions{GridPoints: 4096, Parallelism: 1}
	if _, err := cp.CR(opts); err != nil { // warm the evaluator pool
		t.Fatal(err)
	}
	const runs, maxBytes = 10, 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := cp.CR(opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxBytes {
		t.Errorf("serial CR allocates %d bytes per call, want <= %d", per, maxBytes)
	}
}

func TestCRRejectsBadOptions(t *testing.T) {
	_, cp := compilePair(t, strategy.Proportional{}, 3, 1)
	if _, err := cp.CR(sim.CROptions{XMin: -1}); err == nil {
		t.Error("negative XMin accepted")
	}
	if _, err := cp.CR(sim.CROptions{XMin: 10, XMax: 5}); err == nil {
		t.Error("inverted range accepted")
	}
}

// TestSharedTrajectoriesCompileOnce checks the doubling baseline (all
// robots share one trajectory) is deduplicated in the compiled form.
func TestSharedTrajectoriesCompileOnce(t *testing.T) {
	planShared, err := sim.FromStrategy(strategy.Doubling{}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cpShared, err := compiled.Compile(planShared)
	if err != nil {
		t.Fatal(err)
	}
	planSingle, err := sim.FromStrategy(strategy.Doubling{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpSingle, err := compiled.Compile(planSingle)
	if err != nil {
		t.Fatal(err)
	}
	if cpShared.Corners() != cpSingle.Corners() {
		t.Errorf("shared-trajectory plan materialises %d corners, single robot %d",
			cpShared.Corners(), cpSingle.Corners())
	}
}
