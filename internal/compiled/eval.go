package compiled

import (
	"context"
	"fmt"
	"math"
	"sync"

	"linesearch/internal/telemetry"
)

// Evaluator answers queries against one compiled plan using fixed
// scratch buffers, so steady-state evaluation performs zero heap
// allocations. An Evaluator is NOT safe for concurrent use; get one per
// goroutine from Plan.Evaluator and return it with Release, or use the
// Plan-level convenience methods, which do that internally.
type Evaluator struct {
	plan *Plan
	// buf and mbuf are the fixed-size selection buffers: per-query
	// first-visit times of the robot groups that ever reach the target,
	// and those groups' multiplicities. The k-th visit is extracted by
	// partial selection (rounds of min-finding), never a full sort.
	buf  []float64
	mbuf []int
	// hints caches each group's last covering corner index; consecutive
	// queries for nearby (in particular sorted) targets then re-enter
	// the binary search on a narrowed window.
	hints []int
}

// evaluatorPool recycles Evaluators so the Plan-level methods stay
// allocation-free after warm-up.
type evaluatorPool struct {
	plan *Plan
	pool sync.Pool
}

func (ep *evaluatorPool) get() *Evaluator {
	if e, ok := ep.pool.Get().(*Evaluator); ok {
		return e
	}
	return newEvaluator(ep.plan)
}

func (ep *evaluatorPool) put(e *Evaluator) { ep.pool.Put(e) }

func newEvaluator(p *Plan) *Evaluator {
	e := &Evaluator{
		plan:  p,
		buf:   make([]float64, len(p.groups)),
		mbuf:  make([]int, len(p.groups)),
		hints: make([]int, len(p.groups)),
	}
	for i := range e.hints {
		e.hints[i] = -1
	}
	return e
}

// Evaluator returns a scratch evaluator for this plan. Callers that
// issue many queries from one goroutine should hold one evaluator for
// the whole run and Release it at the end.
func (p *Plan) Evaluator() *Evaluator { return p.evals.get() }

// Release returns the evaluator to its plan's pool. The evaluator must
// not be used afterwards.
func (e *Evaluator) Release() { e.plan.evals.put(e) }

// FirstVisit returns robot i's earliest time standing on x, with ok
// reporting whether the robot ever visits x.
func (e *Evaluator) FirstVisit(i int, x float64) (float64, bool) {
	if i < 0 || i >= e.plan.N() {
		return 0, false
	}
	g := e.plan.src.RobotGroup(i)
	t, idx, ok := e.plan.groups[g].firstVisit(x, e.hints[g])
	e.hints[g] = idx
	return t, ok
}

// KthDistinctVisit returns the time of the k-th distinct robot's first
// visit to x (+Inf if fewer than k robots ever visit), matching
// sim.Plan.KthDistinctVisit. k is validated before any trajectory
// queries run.
func (e *Evaluator) KthDistinctVisit(x float64, k int) (float64, error) {
	n := e.plan.N()
	if k < 1 || k > n {
		return 0, fmt.Errorf("compiled: visitor index k=%d out of range [1, %d]", k, n)
	}
	return e.kth(x, k), nil
}

// SearchTime returns the worst-case detection time for a target at x:
// the first visit of the DetectionRank-th distinct robot ((f+1)-st in
// the crash model, (f+votes)-th under the Byzantine voting rule), +Inf
// if fewer robots ever visit. Matches sim.Plan.SearchTime.
func (e *Evaluator) SearchTime(x float64) float64 {
	return e.kth(x, e.plan.rank)
}

// EvalMany computes SearchTime for every target in xs, writing into dst
// (grown if needed) and returning it. Passing a dst with sufficient
// capacity makes the call allocation-free. Targets sorted by position
// get the fast path automatically: each robot's covering corner index
// moves monotonically, so the per-query binary search collapses to a
// few probes around the previous index.
func (e *Evaluator) EvalMany(xs []float64, dst []float64) []float64 {
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = e.SearchTime(x)
	}
	return dst
}

// kth returns the k-th smallest first visit to x over all robots, +Inf
// if fewer than k robots ever visit. It selects over per-group times
// counting multiplicities — the same order statistic of the same floats
// as a selection over per-robot times, so the answer is bit-identical.
func (e *Evaluator) kth(x float64, k int) float64 {
	m, robots := e.gatherVisits(x)
	if robots < k {
		return math.Inf(1)
	}
	return selectKth(e.buf[:m], e.mbuf[:m], k)
}

// gatherVisits fills e.buf with the first-visit times of every group
// that reaches x and e.mbuf with their multiplicities; it returns the
// group count and the number of robots they stand for.
func (e *Evaluator) gatherVisits(x float64) (m, robots int) {
	for g, ct := range e.plan.groups {
		t, idx, ok := ct.firstVisit(x, e.hints[g])
		e.hints[g] = idx
		if ok {
			e.buf[m] = t
			e.mbuf[m] = e.plan.mult[g]
			robots += e.plan.mult[g]
			m++
		}
	}
	return m, robots
}

// selectKth returns the k-th smallest value of the multiset in which
// ts[i] occurs ms[i] times (1-based), reordering both slices in place:
// rounds of min-finding, each retiring a whole group. O(k*len(ts)) at
// worst, zero allocations; for the search-time workload k = rank <= n
// this beats a full sort and never touches the heap. The caller
// guarantees the multiplicities sum to at least k.
func selectKth(ts []float64, ms []int, k int) float64 {
	for i := 0; ; i++ {
		min := i
		for j := i + 1; j < len(ts); j++ {
			if ts[j] < ts[min] {
				min = j
			}
		}
		ts[i], ts[min] = ts[min], ts[i]
		ms[i], ms[min] = ms[min], ms[i]
		if k -= ms[i]; k <= 0 {
			return ts[i]
		}
	}
}

// --- Plan-level conveniences (pool-backed, safe for concurrent use) ---

// SearchTime is the concurrency-safe convenience form of
// Evaluator.SearchTime.
func (p *Plan) SearchTime(x float64) float64 {
	e := p.evals.get()
	t := e.SearchTime(x)
	p.evals.put(e)
	return t
}

// KthDistinctVisit is the concurrency-safe convenience form of
// Evaluator.KthDistinctVisit.
func (p *Plan) KthDistinctVisit(x float64, k int) (float64, error) {
	e := p.evals.get()
	t, err := e.KthDistinctVisit(x, k)
	p.evals.put(e)
	return t, err
}

// EvalMany is the concurrency-safe convenience form of
// Evaluator.EvalMany.
func (p *Plan) EvalMany(xs []float64, dst []float64) []float64 {
	e := p.evals.get()
	dst = e.EvalMany(xs, dst)
	p.evals.put(e)
	return dst
}

// EvalManyCtx is EvalMany with trace plumbing: when ctx carries a
// sampled telemetry trace, the batch pass records a "kernel.evalmany"
// span annotated with the target count. The untraced path takes the
// nil-span fast path — no allocations, no locking — so batch hot loops
// can call this unconditionally.
func (p *Plan) EvalManyCtx(ctx context.Context, xs []float64, dst []float64) []float64 {
	_, span := telemetry.StartSpan(ctx, "kernel.evalmany")
	span.SetInt("targets", int64(len(xs)))
	dst = p.EvalMany(xs, dst)
	span.End()
	return dst
}
