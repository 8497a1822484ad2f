// Package sim evaluates search plans exactly: given the trajectories of
// n robots and a fault model (crash or Byzantine, budget f), it computes
// per-target visit times, the worst-case search time (the visit of the
// DetectionRank-th distinct robot — the adversary makes the earliest
// visitors faulty, and Byzantine detection additionally waits for
// enough truthful confirmations to outvote possible liars), empirical
// competitive ratios, full event timelines including false claims, and
// Monte-Carlo statistics under random fault assignments.
//
// Nothing here is time-stepped; every quantity comes from the
// trajectories' closed-form visit queries, so results are exact up to
// float64 rounding.
package sim

import (
	"fmt"
	"math"
	"sort"

	"linesearch/internal/fault"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

// Plan is an evaluated search plan: one trajectory per robot plus the
// fault model the plan must tolerate.
type Plan struct {
	trajs []*trajectory.Trajectory
	// groups lists the distinct trajectories in order of first
	// appearance; robotGroup maps each robot to its group.
	groups     []Group
	robotGroup []int
	model      fault.Model
}

// Group is the set of robots following one shared trajectory. Robots
// on the same schedule share one *trajectory.Trajectory (see
// strategy.Strategy.Build), so grouping is by pointer, with no content
// comparison. Evaluators walk each group's trajectory once and count
// its robots.
type Group struct {
	Traj *trajectory.Trajectory
	// Robots is the group's multiplicity, at least 1.
	Robots int
}

// NewPlan wraps trajectories and a crash fault budget — the source
// paper's model. It requires at least one robot, 0 <= f < n, and valid
// trajectories.
func NewPlan(trajs []*trajectory.Trajectory, f int) (*Plan, error) {
	return NewPlanModel(trajs, fault.CrashModel(f))
}

// NewPlanModel wraps trajectories and an explicit fault model. The
// model must be satisfiable by the fleet: 0 <= f < n and detection
// rank (f + votes required) at most n, so the plan can in principle
// guarantee detection.
func NewPlanModel(trajs []*trajectory.Trajectory, m fault.Model) (*Plan, error) {
	n := len(trajs)
	if n == 0 {
		return nil, fmt.Errorf("sim: plan needs at least one robot")
	}
	if err := m.Validate(n); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	for i, tr := range trajs {
		if tr == nil {
			return nil, fmt.Errorf("sim: robot %d has nil trajectory", i)
		}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("sim: robot %d: %w", i, err)
		}
	}
	p := &Plan{trajs: append([]*trajectory.Trajectory(nil), trajs...), robotGroup: make([]int, n), model: m}
	index := make(map[*trajectory.Trajectory]int, n)
	for i, tr := range p.trajs {
		g, ok := index[tr]
		if !ok {
			g = len(p.groups)
			index[tr] = g
			p.groups = append(p.groups, Group{Traj: tr})
		}
		p.groups[g].Robots++
		p.robotGroup[i] = g
	}
	return p, nil
}

// Modeller is the optional strategy extension declaring the fault model
// a strategy's plans are meant to be evaluated under. Strategies that
// do not implement it get the crash model at the pair's budget.
type Modeller interface {
	FaultModel(n, f int) fault.Model
}

// FromStrategy builds the plan produced by st for (n, f) under the
// strategy's fault model (crash unless the strategy declares one).
func FromStrategy(st strategy.Strategy, n, f int) (*Plan, error) {
	trajs, err := st.Build(n, f)
	if err != nil {
		return nil, fmt.Errorf("sim: building %s(%d, %d): %w", st.Name(), n, f, err)
	}
	model := fault.CrashModel(f)
	if m, ok := st.(Modeller); ok {
		model = m.FaultModel(n, f)
	}
	return NewPlanModel(trajs, model)
}

// N returns the number of robots.
func (p *Plan) N() int { return len(p.trajs) }

// F returns the fault budget.
func (p *Plan) F() int { return p.model.F }

// Model returns the plan's fault model.
func (p *Plan) Model() fault.Model { return p.model }

// DetectionRank returns the distinct-visitor rank at which detection is
// guaranteed in the worst case: f+1 in the crash model, f + votes in
// the Byzantine model (2f+1 at the default threshold).
func (p *Plan) DetectionRank() int { return p.model.DetectionRank() }

// Trajectories returns the robots' trajectories, indexed by robot.
func (p *Plan) Trajectories() []*trajectory.Trajectory {
	return append([]*trajectory.Trajectory(nil), p.trajs...)
}

// Groups returns the plan's robot groups in order of first appearance;
// their multiplicities sum to N().
func (p *Plan) Groups() []Group { return append([]Group(nil), p.groups...) }

// RobotGroup returns the index in Groups() of robot i's group.
func (p *Plan) RobotGroup(i int) int { return p.robotGroup[i] }

// Visit records one robot's first arrival at a queried position.
type Visit struct {
	Robot int
	T     float64
}

// FirstVisits returns, for each robot that ever visits x, its first
// visit, sorted by time (ties broken by robot index for determinism).
func (p *Plan) FirstVisits(x float64) []Visit {
	visits := make([]Visit, 0, len(p.trajs))
	for i, tr := range p.trajs {
		if t, ok := tr.FirstVisit(x); ok {
			visits = append(visits, Visit{Robot: i, T: t})
		}
	}
	if len(visits) < 2 {
		// Nothing to order (in particular every n == 1 plan): skip the
		// sort and its closure allocation.
		return visits
	}
	sort.Slice(visits, func(a, b int) bool {
		if visits[a].T != visits[b].T {
			return visits[a].T < visits[b].T
		}
		return visits[a].Robot < visits[b].Robot
	})
	return visits
}

// KthDistinctVisit returns the time of the k-th distinct robot's first
// visit to x (+Inf if fewer than k robots ever visit). SearchTime(x) is
// KthDistinctVisit(x, DetectionRank()).
func (p *Plan) KthDistinctVisit(x float64, k int) (float64, error) {
	// Validate k before any trajectory queries: an out-of-range k must
	// not pay for (or be masked by) n first-visit computations.
	if k < 1 || k > len(p.trajs) {
		return 0, fmt.Errorf("sim: visitor index k=%d out of range [1, %d]", k, len(p.trajs))
	}
	visits := p.FirstVisits(x)
	if len(visits) < k {
		return math.Inf(1), nil
	}
	return visits[k-1].T, nil
}

// WithFaultBudget returns a plan over the same trajectories with a
// different fault budget (same model family), for evaluating the
// k-th-visitor objective of a fixed schedule at several budgets.
func (p *Plan) WithFaultBudget(f int) (*Plan, error) {
	return NewPlanModel(p.trajs, p.model.WithF(f))
}

// SearchTime returns the worst-case detection time for a target at x:
// the first visit by the DetectionRank-th distinct robot. In the crash
// model that is the (f+1)-st visitor (the adversary makes the f
// earliest visitors faulty); in the Byzantine model the adversary
// additionally forces the voting rule to wait for VotesRequired
// truthful claims, so detection lands on the (f+votes)-th visitor. It
// returns +Inf if fewer robots ever visit x — the plan cannot
// guarantee detection there.
func (p *Plan) SearchTime(x float64) float64 {
	rank := p.model.DetectionRank()
	visits := p.FirstVisits(x)
	if len(visits) < rank {
		return math.Inf(1)
	}
	return visits[rank-1].T
}

// WorstFaultAssignment returns the adversary's optimal fault assignment
// against a target at x: the f distinct earliest visitors, assigned the
// model's worst kind (crash, or Byzantine silence — a liar delays the
// vote exactly as much, but silence is canonical). The returned set has
// length n with exactly min(f, visitors) faulty entries.
func (p *Plan) WorstFaultAssignment(x float64) fault.Set {
	set := make(fault.Set, len(p.trajs))
	worst := p.model.WorstKind()
	visits := p.FirstVisits(x)
	for i := 0; i < len(visits) && i < p.model.F; i++ {
		set[visits[i].Robot] = worst
	}
	return set
}

// WorstFaultSet is the legacy []bool form of WorstFaultAssignment
// (true = faulty), kept for callers that do not care about kinds.
func (p *Plan) WorstFaultSet(x float64) []bool {
	return p.WorstFaultAssignment(x).Bools()
}

// DetectionTime returns the time a target at x is found given a
// concrete fault assignment, under the plan's detection rule: the
// VotesRequired-th first visit by a reliable robot (1 vote in the crash
// model — the first announcement is trustworthy; f+1 by default in the
// Byzantine model — enough truthful claims to outvote any set of
// liars). Faulty robots never help: crash and Byzantine-silent robots
// say nothing, and liars never truthfully confirm. +Inf means the
// assignment starves the rule below its threshold. len(set) must equal
// n.
func (p *Plan) DetectionTime(x float64, set fault.Set) (float64, error) {
	if len(set) != len(p.trajs) {
		return 0, fmt.Errorf("sim: fault assignment has %d entries for %d robots", len(set), len(p.trajs))
	}
	votes := p.model.VotesRequired()
	for _, v := range p.FirstVisits(x) {
		if set[v.Robot].Confirms() {
			votes--
			if votes == 0 {
				return v.T, nil
			}
		}
	}
	return math.Inf(1), nil
}

// DetectionTimeBools is the thin []bool compatibility adapter for
// DetectionTime: true entries become the model's worst faulty kind.
func (p *Plan) DetectionTimeBools(x float64, faulty []bool) (float64, error) {
	if len(faulty) != len(p.trajs) {
		return 0, fmt.Errorf("sim: fault vector has %d entries for %d robots", len(faulty), len(p.trajs))
	}
	set := make(fault.Set, len(faulty))
	worst := p.model.WorstKind()
	for i, b := range faulty {
		if b {
			set[i] = worst
		}
	}
	return p.DetectionTime(x, set)
}

// Ratio returns SearchTime(x) / |x|, the quantity whose supremum over
// |x| >= 1 is the competitive ratio. x must be nonzero.
func (p *Plan) Ratio(x float64) (float64, error) {
	if x == 0 {
		return 0, fmt.Errorf("sim: ratio undefined at the origin")
	}
	return p.SearchTime(x) / math.Abs(x), nil
}
