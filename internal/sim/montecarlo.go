package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"linesearch/internal/fault"
	"linesearch/internal/numeric"
)

// MCConfig configures a Monte-Carlo fault-injection run: targets are
// drawn log-uniformly from [XMin, XMax] on a uniformly random side, and
// an independent uniformly random set of exactly F robots is made
// faulty in each trial.
type MCConfig struct {
	// Trials is the number of independent searches. Default 1000.
	Trials int
	// Seed makes the run reproducible. The zero seed is valid (and
	// distinct from seed 1). Each trial derives its own generator from
	// (Seed, trial index), so results are independent of Parallelism.
	Seed int64
	// XMin and XMax bound the target distance. Defaults 1 and 1e4.
	XMin, XMax float64
	// Parallelism is the number of worker goroutines. Default
	// GOMAXPROCS. The result is deterministic regardless of the value.
	Parallelism int
}

func (c MCConfig) withDefaults() MCConfig {
	if c.Trials == 0 {
		c.Trials = 1000
	}
	if c.XMin == 0 {
		c.XMin = 1
	}
	if c.XMax == 0 {
		c.XMax = 1e4
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

func (c MCConfig) validate() error {
	if c.Trials < 1 {
		return fmt.Errorf("sim: MCConfig.Trials must be positive, got %d", c.Trials)
	}
	if c.XMin < 1 || c.XMax <= c.XMin {
		return fmt.Errorf("sim: MCConfig target range [%g, %g] invalid (need 1 <= XMin < XMax)", c.XMin, c.XMax)
	}
	if c.Parallelism < 1 {
		return fmt.Errorf("sim: MCConfig.Parallelism must be >= 1, got %d", c.Parallelism)
	}
	return nil
}

// MCResult summarises a Monte-Carlo run. Ratios are detection time over
// target distance under the sampled (not worst-case) fault sets.
type MCResult struct {
	Trials   int
	Mean     float64
	Min, Max float64
	ratios   []float64 // sorted
}

// Quantile returns the q-th empirical quantile of the observed ratios,
// for q in [0, 1].
func (r MCResult) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("sim: quantile %g outside [0, 1]", q)
	}
	if len(r.ratios) == 0 {
		return 0, fmt.Errorf("sim: empty Monte-Carlo result")
	}
	idx := int(q * float64(len(r.ratios)-1))
	return r.ratios[idx], nil
}

// trialSeedMix decorrelates per-trial generators derived from the same
// base seed (the 64-bit golden-ratio constant of splitmix64,
// reinterpreted as a signed value).
const trialSeedMix = int64(-7046029254386353131) // 0x9E3779B97F4A7C15

// MonteCarlo runs cfg.Trials random searches against the plan and
// reports the distribution of detection ratios. Trials are split over
// cfg.Parallelism goroutines by numeric.ForChunks; every trial seeds
// its own generator from (Seed, index), so the result depends only on
// the configuration. Random faults are
// typically far kinder than the adversarial assignment: the mean ratio
// sits well below the worst-case competitive ratio.
func (p *Plan) MonteCarlo(cfg MCConfig) (MCResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return MCResult{}, err
	}

	ratios := make([]float64, cfg.Trials)
	err := numeric.ForChunks(cfg.Trials, cfg.Parallelism, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			ratio, err := p.trial(cfg, i)
			if err != nil {
				return err
			}
			ratios[i] = ratio
		}
		return nil
	})
	if err != nil {
		return MCResult{}, err
	}
	res := MCResult{Trials: cfg.Trials, ratios: ratios}
	res.Mean, res.Min, res.Max = numeric.MeanMinMax(ratios)
	sort.Float64s(res.ratios)
	return res, nil
}

// trial runs one random search with a generator derived from the base
// seed and the trial index. The fault assignment is a uniformly random
// set of exactly F robots; under a Byzantine model each faulty robot
// additionally flips a fair coin between silence and lying (the
// detection rule treats both the same, but timelines and any future
// per-kind statistics see the mix). Crash-model trials draw exactly the
// random stream they always did, so seeded results are stable.
func (p *Plan) trial(cfg MCConfig, idx int) (float64, error) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ (int64(idx+1) * trialSeedMix)))
	logMin, logMax := math.Log(cfg.XMin), math.Log(cfg.XMax)
	x := math.Exp(logMin + rng.Float64()*(logMax-logMin))
	if rng.Intn(2) == 0 {
		x = -x
	}
	set := make(fault.Set, p.N())
	byzantine := p.model.Kind == fault.ModelByzantine
	for _, i := range rng.Perm(p.N())[:p.model.F] {
		kind := p.model.WorstKind()
		if byzantine && rng.Intn(2) == 0 {
			kind = fault.ByzantineLiar
		}
		set[i] = kind
	}
	detect, err := p.DetectionTime(x, set)
	if err != nil {
		return 0, err
	}
	return detect / math.Abs(x), nil
}
