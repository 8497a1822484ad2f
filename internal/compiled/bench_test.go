package compiled_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// benchPlan is the canonical benchmark subject: the paper's A(5, 2)
// proportional schedule, a mid-size plan with non-trivial zig-zags.
func benchPlan(b *testing.B) (*sim.Plan, *compiled.Plan) {
	b.Helper()
	plan, err := sim.FromStrategy(strategy.Proportional{}, 5, 2)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := compiled.Compile(plan)
	if err != nil {
		b.Fatal(err)
	}
	return plan, cp
}

// benchTargets returns size log-spaced magnitudes in [1, 10^4] with
// alternating signs, then swaps mirrored pairs whose first element is
// larger. The result is NOT sorted (size 10 gives -10000, -2.78,
// -1291.5, ...): consecutive targets jump across both half lines, so
// the hint fast path rarely applies. The inputs stay as they are so the
// BENCH_*.json history remains comparable; BenchmarkCompiledBatchSorted
// measures the sorted case.
func benchTargets(size int) []float64 {
	xs := make([]float64, size)
	for i := range xs {
		x := math.Pow(10, 4*float64(i)/float64(max(size-1, 1)))
		if i%2 == 1 {
			x = -x
		}
		xs[i] = x
	}
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		if xs[i] > xs[j] {
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	return xs
}

// BenchmarkCompileCold measures plan flattening (the one-time cost paid
// at Searcher construction).
func BenchmarkCompileCold(b *testing.B) {
	plan, _ := benchPlan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiled.Compile(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchTimeHot measures one steady-state worst-case query
// through a held evaluator.
func BenchmarkSearchTimeHot(b *testing.B) {
	_, cp := benchPlan(b)
	e := cp.Evaluator()
	defer e.Release()
	xs := benchTargets(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.SearchTime(xs[i%len(xs)]) <= 0 {
			b.Fatal("bad search time")
		}
	}
}

// BenchmarkCompiledBatch measures EvalMany over benchTargets batches of
// increasing size; per-op cost should be linear in the batch with zero
// allocations.
func BenchmarkCompiledBatch(b *testing.B) {
	_, cp := benchPlan(b)
	for _, size := range []int{1, 100, 10000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			e := cp.Evaluator()
			defer e.Release()
			xs := benchTargets(size)
			dst := make([]float64, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = e.EvalMany(xs, dst)
			}
		})
	}
}

// BenchmarkCompiledBatchCtx is BenchmarkCompiledBatch through the
// context-aware entry point with an untraced context: the telemetry
// hooks must stay within noise of the plain path and allocate nothing.
func BenchmarkCompiledBatchCtx(b *testing.B) {
	_, cp := benchPlan(b)
	ctx := context.Background()
	for _, size := range []int{1, 100, 10000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			xs := benchTargets(size)
			dst := make([]float64, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = cp.EvalManyCtx(ctx, xs, dst)
			}
		})
	}
}

// BenchmarkCompiledBatchSorted is BenchmarkCompiledBatch over the same
// targets sorted ascending, the order in which each robot group's
// covering corner index moves monotonically and the hints narrow every
// binary search.
func BenchmarkCompiledBatchSorted(b *testing.B) {
	_, cp := benchPlan(b)
	for _, size := range []int{100, 10000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			e := cp.Evaluator()
			defer e.Release()
			xs := benchTargets(size)
			sort.Float64s(xs)
			dst := make([]float64, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = e.EvalMany(xs, dst)
			}
		})
	}
}

// BenchmarkSimBatch is the pre-kernel reference: the same targets through
// sim.Plan.SearchTime (per-call visit collection and sorting).
func BenchmarkSimBatch(b *testing.B) {
	plan, _ := benchPlan(b)
	for _, size := range []int{1, 100, 10000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			xs := benchTargets(size)
			dst := make([]float64, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, x := range xs {
					dst[j] = plan.SearchTime(x)
				}
			}
		})
	}
}

// BenchmarkSweepCellCompiled measures one sweep grid cell's CR search
// through the compiled kernel (the internal/sweep evaluation path).
func BenchmarkSweepCellCompiled(b *testing.B) {
	_, cp := benchPlan(b)
	opts := sim.CROptions{GridPoints: 256, Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.CR(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCellGrid measures one sweep-grid cell's CR search
// (4096 grid points, one worker) through the compiled kernel for the
// grid's three plan shapes: two groups of 30 (auto at (60, 3)), one
// group of 60 (doubling) and the Byzantine rule at (7, 3), whose
// rank-7 crash base A(7, 6) gives every robot its own group.
func BenchmarkSweepCellGrid(b *testing.B) {
	for _, tc := range []struct {
		name string
		st   strategy.Strategy
		n, f int
	}{
		{"twogroup-60-3", strategy.TwoGroup{}, 60, 3},
		{"doubling-60-3", strategy.Doubling{}, 60, 3},
		{"byzantine-7-3", strategy.Byzantine{}, 7, 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			plan, err := sim.FromStrategy(tc.st, tc.n, tc.f)
			if err != nil {
				b.Fatal(err)
			}
			cp, err := compiled.Compile(plan)
			if err != nil {
				b.Fatal(err)
			}
			opts := sim.CROptions{XMax: 1e4, GridPoints: 4096, Eps: 1e-12, Parallelism: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cp.CR(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepCellSim is the same cell through sim.EmpiricalCR.
func BenchmarkSweepCellSim(b *testing.B) {
	plan, _ := benchPlan(b)
	opts := sim.CROptions{GridPoints: 256, Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.EmpiricalCR(opts); err != nil {
			b.Fatal(err)
		}
	}
}
