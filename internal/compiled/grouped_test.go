package compiled_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/geom"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

// groupTrajectory builds a fresh trajectory pointer of the given kind
// for a grouped-plan test: a right or left ray, or a halt, anchored at
// a small integer point (so first visits of different groups tie
// often), or one robot of A(3, 1) re-wrapped (the compiled corner-array
// path). Halts and rays leave most targets unreached by some groups.
func groupTrajectory(t testing.TB, kind, ax, at int) *trajectory.Trajectory {
	t.Helper()
	anchor := geom.Point{X: float64(ax%7 - 3), T: float64(at % 4)}
	var tail trajectory.Tail
	var err error
	switch kind % 4 {
	case 0:
		tail, err = trajectory.NewRay(anchor, trajectory.Right)
	case 1:
		tail, err = trajectory.NewRay(anchor, trajectory.Left)
	case 2:
		tail, err = trajectory.NewHalt(anchor)
	default:
		trajs, berr := strategy.Proportional{}.Build(3, 1)
		if berr != nil {
			t.Fatal(berr)
		}
		src := trajs[ax%3]
		tr, nerr := trajectory.New(src.Legs(), src.TailOf())
		if nerr != nil {
			t.Fatal(nerr)
		}
		return tr
	}
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trajectory.New(nil, tail)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// groupedPlans compiles robots twice: as given (robots sharing a
// pointer form one group) and with every robot re-wrapped in its own
// pointer (single-robot groups, every multiplicity 1).
func groupedPlans(t testing.TB, robots []*trajectory.Trajectory) (grouped, distinct *compiled.Plan) {
	t.Helper()
	compile := func(trajs []*trajectory.Trajectory) *compiled.Plan {
		plan, err := sim.NewPlan(trajs, 0)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := compiled.Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	own := make([]*trajectory.Trajectory, len(robots))
	for i, tr := range robots {
		c, err := trajectory.New(tr.Legs(), tr.TailOf())
		if err != nil {
			t.Fatal(err)
		}
		own[i] = c
	}
	return compile(robots), compile(own)
}

// checkGroupedKth compares, for every k in 1..n, the k-th visit of the
// grouped plan with a sort-based k-th over the expanded per-robot list
// (+Inf when fewer than k robots visit) and with the single-robot-group
// plan.
func checkGroupedKth(t *testing.T, robots []*trajectory.Trajectory, x float64) {
	t.Helper()
	grouped, distinct := groupedPlans(t, robots)
	var visits []float64
	for _, tr := range robots {
		if ft, ok := tr.FirstVisit(x); ok {
			visits = append(visits, ft)
		}
	}
	sort.Float64s(visits)
	for k := 1; k <= len(robots); k++ {
		want := math.Inf(1)
		if k <= len(visits) {
			want = visits[k-1]
		}
		got, err := grouped.KthDistinctVisit(x, k)
		if err != nil {
			t.Fatal(err)
		}
		single, err := distinct.KthDistinctVisit(x, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || single != want {
			t.Fatalf("x=%g k=%d of %d robots: grouped %v, single-robot groups %v, sorted per-robot %v",
				x, k, len(robots), got, single, want)
		}
	}
}

// TestGroupedKthMatchesSorted is the grouped selection's property test:
// random groups with multiplicities 1..5 in shuffled robot order,
// frequent ties between groups, and targets some groups never reach.
func TestGroupedKthMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 300; trial++ {
		var robots []*trajectory.Trajectory
		for g := 1 + rng.Intn(6); g > 0; g-- {
			tr := groupTrajectory(t, rng.Intn(4), rng.Intn(7), rng.Intn(4))
			for m := 1 + rng.Intn(5); m > 0; m-- {
				robots = append(robots, tr)
			}
		}
		rng.Shuffle(len(robots), func(i, j int) { robots[i], robots[j] = robots[j], robots[i] })
		for _, x := range []float64{float64(rng.Intn(13) - 6), rng.Float64()*40 - 20, -3, 3} {
			checkGroupedKth(t, robots, x)
		}
	}
}

// FuzzGroupedKth fuzzes the grouped selection: each 3-byte chunk of
// layout is one group (trajectory kind and anchor, multiplicity 1..4),
// robots are interleaved round-robin across groups, and every k-th
// visit to x must match the sort-based answer.
func FuzzGroupedKth(fz *testing.F) {
	fz.Add([]byte{0, 10, 2, 1, 3, 1}, 2.0)
	fz.Add([]byte{0, 3, 3, 0, 3, 1, 2, 0, 2}, 0.0)
	fz.Add([]byte{3, 1, 4, 3, 2, 1, 1, 5, 0}, -7.5)
	fz.Add([]byte{2, 6, 0, 2, 6, 3}, 3.0)
	fz.Fuzz(func(t *testing.T, layout []byte, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		var trajs []*trajectory.Trajectory
		var mults []int
		for i := 0; i+2 < len(layout) && len(trajs) < 8; i += 3 {
			trajs = append(trajs, groupTrajectory(t, int(layout[i]), int(layout[i+1]), int(layout[i+1]/7)))
			mults = append(mults, 1+int(layout[i+2])%4)
		}
		var robots []*trajectory.Trajectory
		for left := true; left; {
			left = false
			for g := range trajs {
				if mults[g] > 0 {
					robots = append(robots, trajs[g])
					mults[g]--
					left = true
				}
			}
		}
		if len(robots) == 0 {
			return
		}
		checkGroupedKth(t, robots, x)
	})
}
