package sim

import (
	"fmt"
	"math"
	"testing"

	"linesearch/internal/strategy"
)

// pinPlans are the plans the bit-level pins below run on: the paper's
// proportional, two-group and Byzantine regimes plus two schedules
// whose ratios are not all 1.
var pinPlans = map[string]struct {
	st   strategy.Strategy
	n, f int
}{
	"proportional":           {strategy.Proportional{}, 5, 2},
	"twogroup":               {strategy.TwoGroup{}, 8, 3},
	"byzantine":              {strategy.Byzantine{}, 7, 1},
	"byzantine:proportional": {strategy.Byzantine{Base: strategy.Proportional{}}, 7, 2},
	"doubling":               {strategy.Doubling{}, 4, 1},
}

func pinPlan(t *testing.T, name string) *Plan {
	t.Helper()
	pc := pinPlans[name]
	return mustPlan(t, pc.st, pc.n, pc.f)
}

// hexBits formats v as its IEEE-754 bit pattern, so a pin compares
// results to the bit rather than within a tolerance.
func hexBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// TestMonteCarloPinned pins MonteCarlo's mean, extremes and quantiles
// to the bit for every worker count. The values were recorded before
// the worker pool was replaced by numeric.ForChunks and must not move.
func TestMonteCarloPinned(t *testing.T) {
	cases := []struct {
		plan                     string
		seed                     int64
		mean, min, max, q50, q99 string
	}{
		{"proportional", 0, "3fffa87acd66b32d", "3ff66b31b8898b4e", "4011acc9e2a119ae", "3ffbb150df999efb", "40111bdc3d2d2d99"},
		{"proportional", 11, "40007a403c43bdcc", "3ff67a0bd47811cc", "4011a39fee25dc83", "3ffc166e57f6fcfa", "401195d78d7ff0ac"},
		{"twogroup", 0, "3ff0000000000000", "3ff0000000000000", "3ff0000000000000", "3ff0000000000000", "3ff0000000000000"},
		{"twogroup", 11, "3ff0000000000000", "3ff0000000000000", "3ff0000000000000", "3ff0000000000000", "3ff0000000000000"},
		{"byzantine", 0, "3ff0000000000000", "3ff0000000000000", "3ff0000000000000", "3ff0000000000000", "3ff0000000000000"},
		{"byzantine", 11, "3ff0000000000000", "3ff0000000000000", "3ff0000000000000", "3ff0000000000000", "3ff0000000000000"},
		{"byzantine:proportional", 0, "400feeaa272bdd15", "4005a6a3b4e948d5", "40171699da3a4db6", "400ea829d2b5c6d5", "4016ddf46faae20c"},
		{"byzantine:proportional", 11, "400f51fe39b5825c", "4005a79834c679c0", "4017039844c3b1a9", "400e7c5bdc31bf6d", "4016b53285af061e"},
		{"doubling", 0, "40156548268ad47c", "40080047f7e0fea7", "4021eaae454955b6", "401465f5ae9c44a6", "40217c5f9261cfed"},
		{"doubling", 11, "40159417df0985a9", "400815b99d177168", "4021e9a6e4e16855", "4013d6159df50a1b", "4021c1f8dbdcc340"},
	}
	for _, c := range cases {
		p := pinPlan(t, c.plan)
		for _, par := range []int{1, 2, 7} {
			res, err := p.MonteCarlo(MCConfig{Trials: 301, Seed: c.seed, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			q50, err := res.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			q99, err := res.Quantile(0.99)
			if err != nil {
				t.Fatal(err)
			}
			got := [5]string{hexBits(res.Mean), hexBits(res.Min), hexBits(res.Max), hexBits(q50), hexBits(q99)}
			want := [5]string{c.mean, c.min, c.max, c.q50, c.q99}
			if got != want || res.Trials != 301 {
				t.Errorf("%s seed %d parallelism %d: [mean min max q50 q99] = %v (trials %d), want %v",
					c.plan, c.seed, par, got, res.Trials, want)
			}
		}
	}
}

// TestEmpiricalCRPinned pins EmpiricalCR's supremum, witness and
// candidate count to the bit, serially and on 3 workers.
func TestEmpiricalCRPinned(t *testing.T) {
	cases := []struct {
		plan      string
		sup, argx string
		cands     int
	}{
		{"proportional", "4011bcbfe6745e14", "bff6e53fd631488a", 532},
		{"twogroup", "3ff0000000000000", "3ff0000000000000", 512},
		{"byzantine", "3ff0000000000000", "3ff0000000000000", 512},
		{"byzantine:proportional", "4017256e130d1a00", "402638e38e985525", 553},
		{"doubling", "4021ffffffbb47d0", "3ff000000044b830", 552},
	}
	for _, c := range cases {
		p := pinPlan(t, c.plan)
		for _, par := range []int{1, 3} {
			res, err := p.EmpiricalCR(CROptions{XMax: 1e3, GridPoints: 256, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if hexBits(res.Sup) != c.sup || hexBits(res.ArgX) != c.argx || res.Candidates != c.cands {
				t.Errorf("%s parallelism %d: sup %s argx %s candidates %d, want %s %s %d",
					c.plan, par, hexBits(res.Sup), hexBits(res.ArgX), res.Candidates, c.sup, c.argx, c.cands)
			}
		}
	}
}
