package strategy

import (
	"fmt"

	"linesearch/internal/analysis"
	"linesearch/internal/geom"
	"linesearch/internal/schedule"
	"linesearch/internal/trajectory"
)

// TwoGroup is the trivial optimal algorithm for n >= 2f+2 (Section 1):
// split the robots into two groups of at least f+1 and sweep the two
// half-lines. Every point at distance d is visited by f+1 distinct
// robots at time exactly d, so the competitive ratio is 1.
type TwoGroup struct{}

var _ Strategy = TwoGroup{}

// Name implements Strategy.
func (TwoGroup) Name() string { return "twogroup" }

// Description implements Strategy.
func (TwoGroup) Description() string {
	return "two groups of >= f+1 robots sweep opposite directions (CR 1, needs n >= 2f+2)"
}

// Build implements Strategy. Robots 0..ceil(n/2)-1 sweep right, the rest
// sweep left; both halves have at least f+1 robots exactly when
// n >= 2f+2. Each half shares one trajectory.
func (TwoGroup) Build(n, f int) ([]*trajectory.Trajectory, error) {
	regime, err := analysis.Classify(n, f)
	if err != nil {
		return nil, err
	}
	if regime != analysis.RegimeTrivial {
		return nil, fmt.Errorf("strategy: twogroup requires n >= 2f+2, got n=%d, f=%d", n, f)
	}
	sweep := func(dir trajectory.Direction) (*trajectory.Trajectory, error) {
		ray, err := trajectory.NewRay(geom.Point{X: 0, T: 0}, dir)
		if err != nil {
			return nil, err
		}
		return trajectory.New(nil, ray)
	}
	right, err := sweep(trajectory.Right)
	if err != nil {
		return nil, err
	}
	left, err := sweep(trajectory.Left)
	if err != nil {
		return nil, err
	}
	trajs := make([]*trajectory.Trajectory, n)
	for i := range trajs {
		trajs[i] = right
		if i >= (n+1)/2 {
			trajs[i] = left
		}
	}
	return trajs, nil
}

// AnalyticCR implements Strategy.
func (TwoGroup) AnalyticCR(n, f int) (float64, bool) {
	if regime, err := analysis.Classify(n, f); err != nil || regime != analysis.RegimeTrivial {
		return 0, false
	}
	return 1, true
}

// Doubling is the group-doubling baseline mentioned in Section 1.1: all
// n robots move together along the optimal single-robot doubling
// trajectory (the zig-zag of C_3, expansion factor 2). Because every
// point is visited by all robots simultaneously, faults cost nothing
// extra and the competitive ratio is 9 for every f < n — which the
// paper's A(n, f) beats whenever n > f+1.
type Doubling struct {
	// MinDistance is the known minimal target distance; 0 selects 1.
	MinDistance float64
}

var _ Strategy = Doubling{}

// Name implements Strategy.
func (Doubling) Name() string { return "doubling" }

// Description implements Strategy.
func (Doubling) Description() string {
	return "all robots follow the single-robot doubling strategy together (CR 9)"
}

// Build implements Strategy. The shared trajectory is A(1, 0): the
// single-robot proportional schedule, whose cone C_3 yields the classic
// doubling walk 1, -2, 4, -8, ...
func (d Doubling) Build(n, f int) ([]*trajectory.Trajectory, error) {
	if n < 1 {
		return nil, fmt.Errorf("strategy: doubling requires n >= 1, got %d", n)
	}
	if f >= n {
		return nil, fmt.Errorf("strategy: doubling requires f < n, got n=%d, f=%d", n, f)
	}
	single, err := schedule.NewScaled(1, 0, 3, minDistance(d.MinDistance))
	if err != nil {
		return nil, err
	}
	shared := single.Trajectories()[0]
	trajs := make([]*trajectory.Trajectory, n)
	for i := range trajs {
		trajs[i] = shared
	}
	return trajs, nil
}

// AnalyticCR implements Strategy.
func (Doubling) AnalyticCR(n, f int) (float64, bool) {
	if n < 1 || f >= n || f < 0 {
		return 0, false
	}
	return groupDoublingCR, true
}
