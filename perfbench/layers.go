package main

import (
	"fmt"
	"time"

	"linesearch/internal/compiled"
	"linesearch/internal/service"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/sweep"
)

// The standalone layer measurements call one layer's public functions
// directly on a workload's exact inputs, with nothing else running.
// A traced run measures its own workload's layer: the plan cache on
// plan-zipf, the eval kernel on searchtimes-batch, and compile and CR
// on sweep-grid.

// cacheLookups is how many plan-zipf keys the standalone cache
// measurement looks up.
const cacheLookups = 20000

// evalBudget is how long the standalone kernel measurement repeats
// the searchtimes-batch target lists.
const evalBudget = 500 * time.Millisecond

// measureCache looks up plan-zipf's key sequence (connection 0) in a
// fresh 128-entry service.PlanCache, timing hits and builds apart.
func measureCache(o *outcome, in servingInputs) error {
	cache := service.NewPlanCache(defaultFleet.CacheSize, nil)
	var hits, builds []float64
	misses := cache.Stats().Misses
	for _, r := range in.seq[0][:cacheLookups] {
		start := time.Now()
		if _, err := cache.Get(planKey(in.keys[r])); err != nil {
			return fmt.Errorf("plan cache %v: %w", in.keys[r], err)
		}
		d := time.Since(start)
		if m := cache.Stats().Misses; m != misses {
			misses = m
			builds = append(builds, float64(d)/1e3)
		} else {
			hits = append(hits, float64(d))
		}
	}
	o.setLayer("service.cache_build_us", median(builds), len(builds), fmt.Sprintf("median plan build (cache miss) over %d plan-zipf lookups", cacheLookups))
	o.setLayer("service.cache_hit_ns", median(hits), len(hits), fmt.Sprintf("median cache hit over %d plan-zipf lookups", cacheLookups))
	return nil
}

// measureEval evaluates searchtimes-batch's exact target lists with
// Searcher.SearchTimes on the plans the service would build, and
// relates that to the traced backend handler time.
func measureEval(o *outcome, in servingInputs) error {
	cache := service.NewPlanCache(hotKeys, nil)
	var perReq []float64
	deadline := time.Now().Add(evalBudget)
	for i := 0; time.Now().Before(deadline); i++ {
		j := i % len(in.paths)
		plan, err := cache.Get(planKey(in.keys[j]))
		if err != nil {
			return fmt.Errorf("plan %v: %w", in.keys[j], err)
		}
		start := time.Now()
		times, err := plan.Searcher.SearchTimes(in.targets[j])
		d := time.Since(start)
		if err != nil || len(times) != len(in.targets[j]) {
			return fmt.Errorf("SearchTimes %v: %d results, %v", in.keys[j], len(times), err)
		}
		perReq = append(perReq, float64(d)/1e3)
	}
	eval := median(perReq)
	o.setLayer("compiled.eval_us_per_req", eval, len(perReq), fmt.Sprintf("median Searcher.SearchTimes over %d targets", targetsPerReq))
	if h := o.values["service.handler_ms_p50"]; h.Value > 0 {
		o.setLayer("compiled.eval_share", eval/1000/h.Value, h.Samples, "compiled.eval_us_per_req over service.handler_ms_p50")
	}
	return nil
}

// measureCompile compiles every 5th sweep-grid cell's plan and scans
// its CR with the options sweep.EvalCell uses.
func measureCompile(o *outcome, spec sweep.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	var compiles, crs []float64
	cells := spec.Cells()
	for i := 0; i < len(cells); i += sweepLayerStride {
		p := cells[i]
		var st strategy.Strategy
		var err error
		if p.Strategy == sweep.StrategyAuto {
			st, err = strategy.ForPair(p.N, p.F)
		} else {
			st, err = strategy.Parse(p.Strategy)
		}
		if err != nil {
			return fmt.Errorf("cell %d strategy: %w", p.Index, err)
		}
		plan, err := sim.FromStrategy(st, p.N, p.F)
		if err != nil {
			return fmt.Errorf("cell %d plan: %w", p.Index, err)
		}
		start := time.Now()
		kernel, err := compiled.Compile(plan)
		mid := time.Now()
		if err != nil {
			return fmt.Errorf("cell %d compile: %w", p.Index, err)
		}
		if _, err := kernel.CR(sim.CROptions{XMin: p.XMin, XMax: p.XMax, GridPoints: p.GridPoints, Eps: p.Eps, Parallelism: 1}); err != nil {
			return fmt.Errorf("cell %d CR: %w", p.Index, err)
		}
		compiles = append(compiles, float64(mid.Sub(start))/1e3)
		crs = append(crs, float64(time.Since(mid))/1e6)
	}
	o.setLayer("compiled.compile_us", median(compiles), len(compiles), "median compiled.Compile over every 5th sweep-grid cell")
	o.setLayer("compiled.cr_ms_per_cell", median(crs), len(crs), "median Plan.CR over every 5th sweep-grid cell")
	return nil
}
