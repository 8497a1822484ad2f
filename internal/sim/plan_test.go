package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"linesearch/internal/geom"
	"linesearch/internal/numeric"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

func mustPlan(t *testing.T, st strategy.Strategy, n, f int) *Plan {
	t.Helper()
	p, err := FromStrategy(st, n, f)
	if err != nil {
		t.Fatalf("FromStrategy(%s, %d, %d): %v", st.Name(), n, f, err)
	}
	return p
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(nil, 0); err == nil {
		t.Error("empty plan accepted")
	}
	tr := trajectory.Must(nil, trajectory.MustRay(geom.Point{X: 0, T: 0}, trajectory.Right))
	if _, err := NewPlan([]*trajectory.Trajectory{tr}, 1); err == nil {
		t.Error("f >= n accepted")
	}
	if _, err := NewPlan([]*trajectory.Trajectory{tr}, -1); err == nil {
		t.Error("negative f accepted")
	}
	if _, err := NewPlan([]*trajectory.Trajectory{nil}, 0); err == nil {
		t.Error("nil trajectory accepted")
	}
	p, err := NewPlan([]*trajectory.Trajectory{tr}, 0)
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if p.N() != 1 || p.F() != 0 {
		t.Errorf("N, F = %d, %d", p.N(), p.F())
	}
	if len(p.Trajectories()) != 1 {
		t.Error("Trajectories() wrong length")
	}
}

func TestFirstVisitsSortedAndComplete(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	visits := p.FirstVisits(1.5)
	if len(visits) != 3 {
		t.Fatalf("got %d visits, want 3 (every robot eventually visits)", len(visits))
	}
	seen := map[int]bool{}
	for i, v := range visits {
		if seen[v.Robot] {
			t.Errorf("robot %d appears twice", v.Robot)
		}
		seen[v.Robot] = true
		if i > 0 && v.T < visits[i-1].T {
			t.Errorf("visits not sorted: %v", visits)
		}
	}
}

func TestSearchTimeIsFPlusFirstDistinctVisit(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	visits := p.FirstVisits(2)
	if got := p.SearchTime(2); got != visits[1].T {
		t.Errorf("SearchTime(2) = %v, want second visit %v", got, visits[1].T)
	}
}

func TestSearchTimeAtLeastDistance(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 5, 3)
	f := func(xRaw float64) bool {
		if math.IsNaN(xRaw) {
			return true
		}
		x := 1 + math.Abs(math.Mod(xRaw, 1e4))
		if math.Mod(xRaw, 2) < 1 {
			x = -x
		}
		return p.SearchTime(x) >= math.Abs(x)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSearchTimeInfiniteWhenUndetectable(t *testing.T) {
	// A single halting robot with f = 0 never reaches x = 5.
	legs := []geom.Segment{{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 4, T: 4}}}
	tr := trajectory.Must(legs, nil)
	p, err := NewPlan([]*trajectory.Trajectory{tr, tr}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.SearchTime(5); !math.IsInf(got, 1) {
		t.Errorf("SearchTime(5) = %v, want +Inf", got)
	}
	// x = 3 is visited by both copies, so even with one fault it is found.
	if got := p.SearchTime(3); math.IsInf(got, 1) {
		t.Error("SearchTime(3) infinite despite two visitors")
	}
}

func TestWorstFaultSetMatchesSearchTime(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 5, 2)
	for _, x := range []float64{1, -1.5, 3.7, -42, 500} {
		faulty := p.WorstFaultSet(x)
		var count int
		for _, b := range faulty {
			if b {
				count++
			}
		}
		if count != 2 {
			t.Errorf("x=%v: worst fault set has %d faults, want 2", x, count)
		}
		detect, err := p.DetectionTimeBools(x, faulty)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(detect, p.SearchTime(x), 1e-12) {
			t.Errorf("x=%v: detection %v under worst faults != search time %v", x, detect, p.SearchTime(x))
		}
	}
}

func TestRandomFaultsNeverWorseThanAdversary(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 5, 3)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		x := 1 + rng.Float64()*100
		if rng.Intn(2) == 0 {
			x = -x
		}
		faulty := make([]bool, 5)
		for _, i := range rng.Perm(5)[:3] {
			faulty[i] = true
		}
		detect, err := p.DetectionTimeBools(x, faulty)
		if err != nil {
			t.Fatal(err)
		}
		if detect > p.SearchTime(x)+1e-9 {
			t.Fatalf("x=%v: random faults %v beat the adversary: %v > %v", x, faulty, detect, p.SearchTime(x))
		}
	}
}

func TestDetectionTimeNoFaults(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	visits := p.FirstVisits(2.5)
	detect, err := p.DetectionTimeBools(2.5, make([]bool, 3))
	if err != nil {
		t.Fatal(err)
	}
	if detect != visits[0].T {
		t.Errorf("fault-free detection %v, want first visit %v", detect, visits[0].T)
	}
}

func TestDetectionTimeAllVisitorsFaulty(t *testing.T) {
	legs := []geom.Segment{{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 4, T: 4}}}
	tr := trajectory.Must(legs, nil)
	ray := trajectory.Must(nil, trajectory.MustRay(geom.Point{X: 0, T: 0}, trajectory.Left))
	p, err := NewPlan([]*trajectory.Trajectory{tr, ray}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only robot 0 reaches x = 3; make it faulty.
	detect, err := p.DetectionTimeBools(3, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(detect, 1) {
		t.Errorf("detection = %v, want +Inf when the only visitor is faulty", detect)
	}
}

func TestDetectionTimeRejectsBadFaultVector(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	if _, err := p.DetectionTimeBools(1, []bool{true}); err == nil {
		t.Error("short fault vector accepted")
	}
}

func TestRatioRejectsOrigin(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	if _, err := p.Ratio(0); err == nil {
		t.Error("ratio at origin accepted")
	}
}

func TestFromStrategyPropagatesBuildErrors(t *testing.T) {
	if _, err := FromStrategy(strategy.TwoGroup{}, 3, 1); err == nil {
		t.Error("invalid regime accepted")
	}
}

// TestFirstVisitsSingleRobot covers the n == 1 fast path: the single
// visit comes back as-is (no sort), and a never-visited target yields
// an empty list rather than a nil-deref or a spurious entry.
func TestFirstVisitsSingleRobot(t *testing.T) {
	tr := trajectory.Must(nil, trajectory.MustRay(geom.Point{X: 0, T: 0}, trajectory.Right))
	p, err := NewPlan([]*trajectory.Trajectory{tr}, 0)
	if err != nil {
		t.Fatal(err)
	}
	visits := p.FirstVisits(3)
	if len(visits) != 1 || visits[0].Robot != 0 || visits[0].T != 3 {
		t.Errorf("FirstVisits(3) = %v, want [{0 3}]", visits)
	}
	if got := p.FirstVisits(-1); len(got) != 0 {
		t.Errorf("FirstVisits(-1) = %v, want empty", got)
	}
}

// TestPlanGroups checks grouping by trajectory pointer: groups in order
// of first appearance with their multiplicities, the robot → group
// index over interleaved robots, equal-content trajectories behind
// different pointers kept apart, and Groups returning a copy.
func TestPlanGroups(t *testing.T) {
	ray := func() *trajectory.Trajectory {
		return trajectory.Must(nil, trajectory.MustRay(geom.Point{X: 0, T: 0}, trajectory.Right))
	}
	a, b, c := ray(), ray(), ray()
	p, err := NewPlan([]*trajectory.Trajectory{a, b, a, c, b, a}, 2)
	if err != nil {
		t.Fatal(err)
	}
	groups := p.Groups()
	want := []Group{{a, 3}, {b, 2}, {c, 1}}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups, want %d", len(groups), len(want))
	}
	for g := range want {
		if groups[g] != want[g] {
			t.Errorf("group %d = %+v, want %+v", g, groups[g], want[g])
		}
	}
	for i, g := range []int{0, 1, 0, 2, 1, 0} {
		if got := p.RobotGroup(i); got != g {
			t.Errorf("RobotGroup(%d) = %d, want %d", i, got, g)
		}
	}
	groups[0].Robots = 99
	if p.Groups()[0].Robots != 3 {
		t.Error("Groups exposed the plan's own slice")
	}
	q, err := p.WithFaultBudget(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Groups(); len(got) != 3 || got[0] != want[0] {
		t.Errorf("WithFaultBudget groups = %+v", got)
	}
}
