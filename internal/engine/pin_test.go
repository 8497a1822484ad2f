package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"linesearch/internal/fault"
)

// TestMonteCarloPinned pins every MCResult field to the bit for 1, 3
// and 8 workers: a finite estimate, a partly truncated run (finite Min,
// +Inf Max and Mean) and an all-undetected crash fleet. The values were
// recorded before the worker pool was replaced by numeric.ForChunks and
// must not move.
func TestMonteCarloPinned(t *testing.T) {
	crash := []RobotSpec{{Traj: halfLineTraj(t, 1, 2), Kind: fault.Crash}}
	cases := []struct {
		name                   string
		specs                  []RobotSpec
		maxEvents              int
		x                      float64
		seed                   int64
		mean, stderr, min, max string
		undetected, truncated  int
		events                 int64
	}{
		{"stochastic", stochasticFleet(t), 0, 4.2, 99, "402ba7c66495ea1d", "3fc79f2ee775cd3a", "4028444444444444", "4043444444444444", 0, 0, 7922},
		{"stochastic", stochasticFleet(t), 0, 9.7, 0, "403dc03db081bab8", "3fd5943dbbd64959", "403a777777777778", "404a266666666666", 0, 0, 9765},
		{"truncated", stochasticFleet(t), 32, 9.7, 0, "7ff0000000000000", "7ff8000000000001", "403a777777777778", "7ff0000000000000", 86, 86, 9503},
		{"crash", crash, 0, 3, 7, "7ff0000000000000", "7ff8000000000001", "7ff0000000000000", "7ff0000000000000", 301, 0, 0},
	}
	hex := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	for _, c := range cases {
		for _, par := range []int{1, 3, 8} {
			res, err := MonteCarlo(context.Background(), c.specs, Options{MaxEvents: c.maxEvents},
				MCConfig{X: c.x, Trials: 301, Seed: c.seed, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("trials=%d mean=%s stderr=%s min=%s max=%s undetected=%d truncated=%d events=%d",
				res.Trials, hex(res.Mean), hex(res.StdErr), hex(res.Min), hex(res.Max), res.Undetected, res.Truncated, res.Events)
			want := fmt.Sprintf("trials=%d mean=%s stderr=%s min=%s max=%s undetected=%d truncated=%d events=%d",
				301, c.mean, c.stderr, c.min, c.max, c.undetected, c.truncated, c.events)
			if got != want {
				t.Errorf("%s x=%g parallelism %d:\n got %s\nwant %s", c.name, c.x, par, got, want)
			}
		}
	}
}
