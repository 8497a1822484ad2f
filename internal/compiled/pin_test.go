package compiled_test

import (
	"fmt"
	"math"
	"testing"

	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// TestParallelCRPinned pins the materialised, multi-worker CR scan on
// 3 workers: supremum and witness to the bit plus the candidate count.
// The values were recorded before the worker pool was replaced by
// numeric.ForChunks and must not move.
func TestParallelCRPinned(t *testing.T) {
	cases := []struct {
		name      string
		st        strategy.Strategy
		n, f      int
		sup, argx string
		cands     int
	}{
		{"proportional", strategy.Proportional{}, 5, 2, "4011bcbfe6745e14", "bff6e53fd631488a", 532},
		{"twogroup", strategy.TwoGroup{}, 8, 3, "3ff0000000000000", "3ff0000000000000", 512},
		{"byzantine", strategy.Byzantine{}, 7, 1, "3ff0000000000000", "3ff0000000000000", 512},
		{"byzantine:proportional", strategy.Byzantine{Base: strategy.Proportional{}}, 7, 2, "4017256e130d1a00", "402638e38e985525", 553},
		{"doubling", strategy.Doubling{}, 4, 1, "4021ffffffbb47d0", "3ff000000044b830", 552},
	}
	hex := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	for _, c := range cases {
		_, cp := compilePair(t, c.st, c.n, c.f)
		res, err := cp.CR(sim.CROptions{XMax: 1e3, GridPoints: 256, Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		if hex(res.Sup) != c.sup || hex(res.ArgX) != c.argx || res.Candidates != c.cands {
			t.Errorf("%s: sup %s argx %s candidates %d, want %s %s %d",
				c.name, hex(res.Sup), hex(res.ArgX), res.Candidates, c.sup, c.argx, c.cands)
		}
	}
}
