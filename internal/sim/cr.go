package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"linesearch/internal/numeric"
)

// CROptions tunes the empirical competitive-ratio search. The zero value
// selects sensible defaults via (*CROptions).WithDefaults.
type CROptions struct {
	// XMin is the minimal target distance (the normalisation of the
	// competitive ratio). Default 1, matching the paper's assumption.
	XMin float64
	// XMax bounds the searched target range [XMin, XMax] on both half
	// lines. It should cover several expansion periods of the plan.
	// Default 1e4 * XMin.
	XMax float64
	// GridPoints is the number of geometrically spaced safety samples
	// per half line, in addition to the turning-point candidates where
	// the supremum is actually attained (Lemma 3). Default 2048.
	GridPoints int
	// Eps is the relative offset used to probe just beyond a turning
	// point, where the ratio function K has its one-sided suprema.
	// Default 1e-9.
	Eps float64
	// Parallelism is the number of worker goroutines evaluating
	// candidates. Default GOMAXPROCS. The result is deterministic and
	// independent of the worker count.
	Parallelism int
}

// WithDefaults fills zero-valued fields with the documented defaults.
func (o CROptions) WithDefaults() CROptions {
	if o.XMin == 0 {
		o.XMin = 1
	}
	if o.XMax == 0 {
		o.XMax = 1e4 * o.XMin
	}
	if o.GridPoints == 0 {
		o.GridPoints = 2048
	}
	if o.Eps == 0 {
		o.Eps = 1e-9
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

func (o CROptions) validate() error {
	if !(o.XMin > 0) {
		return fmt.Errorf("sim: CROptions.XMin must be positive, got %g", o.XMin)
	}
	if o.XMax <= o.XMin {
		return fmt.Errorf("sim: CROptions.XMax (%g) must exceed XMin (%g)", o.XMax, o.XMin)
	}
	if o.GridPoints < 2 {
		return fmt.Errorf("sim: CROptions.GridPoints must be >= 2, got %d", o.GridPoints)
	}
	if o.Eps <= 0 || o.Eps >= 1 {
		return fmt.Errorf("sim: CROptions.Eps must be in (0, 1), got %g", o.Eps)
	}
	if o.Parallelism < 1 {
		return fmt.Errorf("sim: CROptions.Parallelism must be >= 1, got %d", o.Parallelism)
	}
	return nil
}

// CRResult is the outcome of an empirical competitive-ratio search.
type CRResult struct {
	// Sup is the largest observed ratio SearchTime(x)/|x|.
	Sup float64
	// ArgX is a target position witnessing Sup.
	ArgX float64
	// Candidates is the number of target positions evaluated.
	Candidates int
}

// EmpiricalCR measures the plan's competitive ratio over targets with
// XMin <= |x| <= XMax by direct evaluation. By Lemma 3 the ratio
// function is decreasing between turning points and jumps upward just
// past them, so the supremum is attained in the right-limit at turning
// points; the search therefore evaluates just beyond every trajectory
// corner on both half lines, plus a geometric safety grid. Candidates
// are evaluated by a worker pool (CROptions.Parallelism); the result is
// deterministic: the first candidate in generation order achieving the
// supremum is the witness.
func (p *Plan) EmpiricalCR(opts CROptions) (CRResult, error) {
	opts = opts.WithDefaults()
	candidates, err := p.CRCandidates(opts)
	if err != nil {
		return CRResult{}, err
	}

	ratios := make([]float64, len(candidates))
	workers := opts.Parallelism
	if workers > len(candidates) {
		workers = len(candidates)
	}
	if workers == 1 {
		for i, x := range candidates {
			ratios[i] = p.SearchTime(x) / math.Abs(x)
		}
	} else {
		var wg sync.WaitGroup
		chunk := (len(candidates) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(candidates) {
				hi = len(candidates)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					ratios[i] = p.SearchTime(candidates[i]) / math.Abs(candidates[i])
				}
			}(lo, hi)
		}
		wg.Wait()
	}

	res := CRResult{Sup: math.Inf(-1), Candidates: len(candidates)}
	for i, r := range ratios {
		if r > res.Sup {
			res.Sup = r
			res.ArgX = candidates[i]
		}
	}
	return res, nil
}

// CRCandidates generates the deterministic candidate list the
// competitive-ratio search evaluates: just beyond every trajectory
// corner within range (once per robot), then the geometric safety grid
// on both half lines. It collects ScanCRCandidates, the one generator,
// writing each candidate as many times as it is counted.
func (p *Plan) CRCandidates(opts CROptions) ([]float64, error) {
	var out []float64
	_, err := p.ScanCRCandidates(opts, func(x float64, reps int) {
		for ; reps > 0; reps-- {
			out = append(out, x)
		}
	})
	return out, err
}

// ScanCRCandidates streams the competitive-ratio search's candidate
// targets to yield without materialising them, and returns how many
// candidates the search counts. Corner probes come first, then the
// grid points x and -x in ascending |x|. A trajectory shared by several
// robots is walked once: its corner probes are yielded once with reps
// set to the number of robots sharing it, so a consumer that keeps the
// first strict maximum in yield order gets the same supremum and
// witness as one scanning the per-robot list (a repeated candidate
// never strictly beats its first occurrence). Grid points have reps 1.
// Exported so the compiled kernel (internal/compiled) can run the
// identical search through its allocation-free evaluator.
func (p *Plan) ScanCRCandidates(opts CROptions, yield func(x float64, reps int)) (int, error) {
	opts = opts.WithDefaults()
	if err := opts.validate(); err != nil {
		return 0, err
	}
	inRange := func(x float64) bool {
		a := math.Abs(x)
		return a >= opts.XMin && a <= opts.XMax
	}
	count := 0
	emit := func(x float64, reps int) {
		if inRange(x) {
			yield(x, reps)
			count += reps
		}
	}
	// Corners at position x are reached no later than the cone/turning
	// time, which for every strategy here is within a constant factor of
	// |x|; 20*xmax covers all of them with a wide margin.
	const timeFactor = 20
	for _, g := range p.groups {
		for j, sg := range g.Traj.SegmentsUntil(timeFactor * opts.XMax) {
			if j == 0 && inRange(sg.From.X) {
				emit(sg.From.X*(1+opts.Eps), g.Robots)
			}
			if inRange(sg.To.X) {
				emit(sg.To.X*(1+opts.Eps), g.Robots)
			}
		}
	}
	grid := numeric.NewLogGrid(opts.XMin, opts.XMax, opts.GridPoints)
	for i := 0; i < grid.Len(); i++ {
		x := grid.At(i)
		emit(x, 1)
		emit(-x, 1)
	}
	if count == 0 {
		return 0, fmt.Errorf("sim: no evaluable targets in [%g, %g]", opts.XMin, opts.XMax)
	}
	return count, nil
}

// RatioSeries evaluates SearchTime(x)/|x| at each of the given target
// positions, for plotting the "tower" profile of Figure 4.
func (p *Plan) RatioSeries(xs []float64) ([]float64, error) {
	out := make([]float64, len(xs))
	for i, x := range xs {
		r, err := p.Ratio(x)
		if err != nil {
			return nil, fmt.Errorf("sim: ratio at x=%g: %w", x, err)
		}
		out[i] = r
	}
	return out, nil
}

// VisitorsBy returns how many distinct robots have visited position x
// by time t (inclusive). The target at x is guaranteed found by time t
// exactly when this count reaches f+1 — the set of such (x, t) pairs is
// the "tower" region of Figure 4.
func (p *Plan) VisitorsBy(x, t float64) int {
	count := 0
	for _, tr := range p.trajs {
		if ft, ok := tr.FirstVisit(x); ok && ft <= t {
			count++
		}
	}
	return count
}

// Covered reports whether a target at x is guaranteed detected by time
// t under any fault assignment the plan's model allows: the distinct
// visitor count must reach the detection rank (f+1 crash, f+votes
// Byzantine).
func (p *Plan) Covered(x, t float64) bool {
	return p.VisitorsBy(x, t) >= p.model.DetectionRank()
}
