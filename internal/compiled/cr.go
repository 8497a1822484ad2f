package compiled

import (
	"math"

	"linesearch/internal/numeric"
	"linesearch/internal/sim"
)

// CR measures the plan's empirical competitive ratio exactly like
// sim.Plan.EmpiricalCR — same candidate targets, same deterministic
// winner — but evaluates every candidate through the compiled kernel.
// With one worker (the sweep engine's per-cell path) it streams the
// candidates from sim.Plan.ScanCRCandidates and keeps a running
// supremum, evaluating a shared trajectory's corner probes once and
// allocating no candidate or ratio slice. With more workers (MeasureCR)
// it materialises the candidates, splits them with numeric.ForChunks
// (one evaluator per chunk) and reduces with sim.CRFromRatios.
func (p *Plan) CR(opts sim.CROptions) (sim.CRResult, error) {
	opts = opts.WithDefaults()
	if opts.Parallelism <= 1 {
		return p.crSerial(opts)
	}
	candidates, err := p.src.CRCandidates(opts)
	if err != nil {
		return sim.CRResult{}, err
	}

	ratios := make([]float64, len(candidates))
	numeric.ForChunks(len(candidates), opts.Parallelism, func(_, lo, hi int) error {
		e := p.evals.get()
		for i := lo; i < hi; i++ {
			ratios[i] = e.SearchTime(candidates[i]) / math.Abs(candidates[i])
		}
		p.evals.put(e)
		return nil
	})
	return sim.CRFromRatios(candidates, ratios), nil
}

// crSerial is CR on one goroutine over the streamed candidates: the
// first strict maximum in generation order is the witness, as in the
// materialised scan.
func (p *Plan) crSerial(opts sim.CROptions) (sim.CRResult, error) {
	e := p.evals.get()
	defer p.evals.put(e)
	res := sim.CRResult{Sup: math.Inf(-1)}
	n, err := p.src.ScanCRCandidates(opts, func(x float64, _ int) {
		if r := e.SearchTime(x) / math.Abs(x); r > res.Sup {
			res.Sup, res.ArgX = r, x
		}
	})
	if err != nil {
		return sim.CRResult{}, err
	}
	res.Candidates = n
	return res, nil
}
