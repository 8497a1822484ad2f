// Package compiled is the hot-path evaluation kernel: it flattens a
// sim.Plan's trajectories into flat turning-time/position arrays once,
// then answers first-visit queries by binary search and k-th-distinct
// -visit queries with a zero-allocation partial selection — no per-query
// []Visit slice, no sort.
//
// Robots that share a trajectory pointer (the two-group sweep, the
// doubling baseline, every Byzantine plan over them) form one robot
// group: its trajectory is compiled and evaluated once per query, and
// the k-th visit is selected by counting each group's multiplicity.
//
// The flattening exploits the structure Theorem 3 gives every schedule
// in this repository: turning points form a geometric sequence inside
// the cone C_beta, so a finite corner array covers an exponentially
// large target range. Each robot's corner list is paired with its
// running coverage envelope (cumulative min/max position); the envelope
// is monotone in the corner index, so "which segment first reaches x"
// is a binary search. Targets beyond the compiled envelope fall back to
// the exact closed-form query on the source trajectory, so compiled
// answers are defined for every input the simulator accepts.
//
// All crossing times are computed with the same arithmetic as
// internal/sim (identical segment endpoints, identical interpolation),
// so compiled results agree with the reference engine bit-for-bit on
// covered targets; the differential test in this package enforces
// agreement to 1e-9 across randomized plans.
package compiled

import (
	"fmt"

	"linesearch/internal/geom"
	"linesearch/internal/sim"
	"linesearch/internal/trajectory"
)

// tailKind discriminates the infinite continuation of a compiled
// trajectory for queries beyond the corner arrays.
type tailKind uint8

const (
	// tailNone: the robot halts at (or before) the last corner; targets
	// outside the envelope are never visited.
	tailNone tailKind = iota
	// tailRay: one-way unit-speed sweep from the last corner; targets
	// ahead of the anchor are visited in closed form.
	tailRay
	// tailFallback: an infinite zig-zag (or unknown tail) extending past
	// the compiled horizon; out-of-envelope queries use the source
	// trajectory's exact closed form.
	tailFallback
)

// Options tunes compilation. The zero value selects defaults.
type Options struct {
	// CoverageFactor is the target position range of the corner arrays
	// relative to each zig-zag's anchor magnitude: turning points are
	// materialised until the envelope covers |x| <= CoverageFactor *
	// |anchor|. Default 1e8 — far beyond the service's maximum query
	// horizon, so fallbacks happen only for pathological targets.
	CoverageFactor float64
	// MaxCorners caps the per-trajectory corner count (a guard for
	// near-degenerate cones whose expansion factor is barely above 1).
	// Default 4096. Queries beyond a capped envelope fall back to the
	// exact trajectory closed form.
	MaxCorners int
}

func (o Options) withDefaults() Options {
	if o.CoverageFactor == 0 {
		o.CoverageFactor = 1e8
	}
	if o.MaxCorners == 0 {
		o.MaxCorners = 4096
	}
	return o
}

// ctraj is one robot group's compiled trajectory: corner arrays plus
// the coverage envelope and the tail descriptor.
type ctraj struct {
	// times and pos are the trajectory's corner points (finite legs
	// followed by materialised tail turning points); times never
	// decrease and motion between consecutive corners is uniform.
	times []float64
	pos   []float64
	// cumMin and cumMax are the running coverage envelope:
	// cumMin[i] = min(pos[0..i]), cumMax[i] = max(pos[0..i]). cumMin is
	// nonincreasing and cumMax nondecreasing, which makes "first corner
	// index whose envelope contains x" binary-searchable.
	cumMin []float64
	cumMax []float64

	tail tailKind
	// rayX, rayT, rayDir describe the tailRay continuation (the exact
	// anchor floats of the source Ray, so closed forms match sim).
	rayX, rayT, rayDir float64
	// src answers out-of-envelope queries for tailFallback.
	src *trajectory.Trajectory
}

// Plan is a compiled search plan: one compiled trajectory per robot
// group of the source plan (sim.Plan.Groups) plus the fault model's
// budget and detection rank. It is immutable and safe for concurrent
// use; per-query scratch lives in Evaluators (see eval.go).
type Plan struct {
	// groups[g] is the compiled trajectory of the source plan's group g
	// and mult[g] the number of robots following it.
	groups []*ctraj
	mult   []int
	f      int
	// rank is the distinct-visitor rank at which the source plan's
	// detection rule fires: f+1 in the crash model, f+votes under the
	// Byzantine voting rule. The kernel's selection path is identical
	// either way — only k changes.
	rank  int
	src   *sim.Plan
	evals evaluatorPool
}

// Compile flattens every trajectory of p into the binary-searchable
// corner representation using default options.
func Compile(p *sim.Plan) (*Plan, error) {
	return CompileOptions(p, Options{})
}

// CompileOptions is Compile with explicit tuning.
func CompileOptions(p *sim.Plan, opts Options) (*Plan, error) {
	if p == nil {
		return nil, fmt.Errorf("compiled: nil plan")
	}
	opts = opts.withDefaults()
	groups := p.Groups()
	cp := &Plan{groups: make([]*ctraj, len(groups)), mult: make([]int, len(groups)), f: p.F(), rank: p.DetectionRank(), src: p}
	for g, grp := range groups {
		ct, err := compileTrajectory(grp.Traj, opts)
		if err != nil {
			return nil, fmt.Errorf("compiled: robot group %d: %w", g, err)
		}
		cp.groups[g], cp.mult[g] = ct, grp.Robots
	}
	cp.evals.plan = cp
	return cp, nil
}

// N returns the number of robots.
func (p *Plan) N() int { return p.src.N() }

// F returns the fault budget.
func (p *Plan) F() int { return p.f }

// DetectionRank returns the distinct-visitor rank at which detection is
// guaranteed, mirroring sim.Plan.DetectionRank.
func (p *Plan) DetectionRank() int { return p.rank }

// Source returns the sim.Plan this plan was compiled from.
func (p *Plan) Source() *sim.Plan { return p.src }

// Corners returns the total number of materialised corner points across
// distinct trajectories — a memory-footprint observability hook.
func (p *Plan) Corners() int {
	total := 0
	for _, ct := range p.groups {
		total += len(ct.times)
	}
	return total
}

// compileTrajectory flattens one trajectory.
func compileTrajectory(tr *trajectory.Trajectory, opts Options) (*ctraj, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	ct := &ctraj{src: tr}

	appendCorner := func(p geom.Point) {
		if n := len(ct.times); n > 0 {
			if prev := ct.times[n-1]; p.T < prev {
				// Tail anchors may precede the final leg corner by up
				// to the trajectory contiguity tolerance; clamp to keep
				// the times array monotone.
				p.T = prev
			}
			if ct.times[n-1] == p.T && ct.pos[n-1] == p.X {
				return // exact duplicate (leg junction repeated by the tail anchor)
			}
		}
		ct.times = append(ct.times, p.T)
		ct.pos = append(ct.pos, p.X)
	}

	legs := tr.Legs()
	if len(legs) > 0 {
		appendCorner(legs[0].From)
		for _, leg := range legs {
			appendCorner(leg.To)
		}
	}

	switch tail := tr.TailOf().(type) {
	case nil:
		ct.tail = tailNone
	case *trajectory.Halt:
		// A halting robot never extends coverage beyond its anchor,
		// which is already the last corner (or becomes it here for a
		// tail-only trajectory).
		appendCorner(tail.Anchor())
		ct.tail = tailNone
	case *trajectory.Ray:
		a := tail.Anchor()
		appendCorner(a)
		ct.tail = tailRay
		ct.rayX, ct.rayT, ct.rayDir = a.X, a.T, float64(tail.Dir())
	case *trajectory.ZigZag:
		appendCorner(tail.TurningPoint(0))
		cover := opts.CoverageFactor * abs(tail.Anchor().X)
		lo, hi := minSlice(ct.pos), maxSlice(ct.pos)
		k := 1
		for (hi < cover || lo > -cover) && len(ct.times) < opts.MaxCorners {
			p := tail.TurningPoint(k)
			appendCorner(p)
			if p.X < lo {
				lo = p.X
			}
			if p.X > hi {
				hi = p.X
			}
			k++
		}
		// Queries beyond the materialised horizon (capped or not) use
		// the exact closed form; on covered targets the arrays answer.
		ct.tail = tailFallback
	default:
		// Unknown tail implementation: the corner arrays accelerate the
		// finite prefix, everything else goes to the source trajectory.
		// Materialise the anchor when the tail exposes one so tail-only
		// trajectories (e.g. the half-line zig-zag) still compile.
		if a, ok := tr.TailOf().(interface{ Anchor() geom.Point }); ok {
			appendCorner(a.Anchor())
		}
		ct.tail = tailFallback
	}

	if len(ct.times) == 0 {
		return nil, fmt.Errorf("compiled: trajectory produced no corners")
	}

	ct.cumMin = make([]float64, len(ct.pos))
	ct.cumMax = make([]float64, len(ct.pos))
	lo, hi := ct.pos[0], ct.pos[0]
	for i, x := range ct.pos {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		ct.cumMin[i] = lo
		ct.cumMax[i] = hi
	}
	return ct, nil
}

// covered reports whether the envelope at corner index i contains x.
func (ct *ctraj) covered(i int, x float64) bool {
	return ct.cumMin[i] <= x && x <= ct.cumMax[i]
}

// firstVisit returns the robot's earliest time standing on x. hint is
// the covering corner index returned by a previous query (or a negative
// value for none); for sorted or nearby targets it narrows the binary
// search to a few corners. The returned index is the new hint; ok
// reports whether the robot ever visits x.
func (ct *ctraj) firstVisit(x float64, hint int) (t float64, idx int, ok bool) {
	last := len(ct.times) - 1
	if !ct.covered(last, x) {
		switch ct.tail {
		case tailRay:
			// Same closed form as trajectory.Ray.FirstVisit, on the
			// exact anchor floats.
			ahead := (x - ct.rayX) * ct.rayDir
			if ahead < 0 {
				return 0, hint, false
			}
			return ct.rayT + ahead, hint, true
		case tailFallback:
			t, ok := ct.src.FirstVisit(x)
			return t, hint, ok
		default:
			return 0, hint, false
		}
	}

	// Find the minimal corner index whose envelope contains x. The
	// predicate covered(i, x) is monotone in i, so the previous query's
	// index splits the search: a still-covering hint bounds from above,
	// a stale one from below.
	lo, hi := 0, last
	if hint >= 0 && hint <= last {
		if ct.covered(hint, x) {
			hi = hint
		} else {
			lo = hint + 1
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ct.covered(mid, x) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}

	if lo == 0 {
		// x is the start position itself.
		return ct.times[0], 0, true
	}
	// x entered the envelope on the segment lo-1 -> lo, which therefore
	// crosses it exactly once; interpolate with the same arithmetic as
	// geom.Segment.VisitTimes. The displacement cannot be zero: a
	// stationary segment never extends the envelope.
	x0, x1 := ct.pos[lo-1], ct.pos[lo]
	frac := (x - x0) / (x1 - x0)
	return ct.times[lo-1] + frac*(ct.times[lo]-ct.times[lo-1]), lo, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func minSlice(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxSlice(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
