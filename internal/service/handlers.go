package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"linesearch"
	"linesearch/internal/faultpoint"
	"linesearch/internal/telemetry"
)

// Service-layer fault points: the head of the shared evaluation path
// and the expensive plan construction (see cache.go). Chaos tests arm
// them to prove shed/503 behavior without breaking real evaluations.
const (
	fpServiceEval  = "service.eval"
	fpServiceBuild = "service.build"
)

// Op names accepted by the batch endpoint; each GET endpoint maps to
// exactly one op.
const (
	OpPlan        = "plan"
	OpSearchTime  = "searchtime"
	OpSearchTimes = "searchtimes"
	OpTimeline    = "timeline"
	OpLowerBound  = "lowerbound"
)

// maxBatchTargets caps the xs list of one searchtimes query; larger
// curves should be split across batch items.
const maxBatchTargets = 10000

// maxHorizonFactor caps timeline and turning-point horizons relative to
// the schedule's minimal distance: uniform-spacing schedules produce
// output linear in the horizon, so an unbounded horizon is a trivial
// memory DoS.
const maxHorizonFactor = 1e5

// maxTurningPoints bounds the per-robot corner list in a plan response.
const maxTurningPoints = 256

// Query is one evaluation request. The GET endpoints parse it from URL
// parameters; POST /v1/batch decodes a list of them from JSON (where
// the standard JSON syntax already excludes NaN and infinities).
type Query struct {
	Op       string  `json:"op"`
	N        int     `json:"n"`
	F        int     `json:"f"`
	Strategy string  `json:"strategy,omitempty"`
	MinDist  float64 `json:"mindist,omitempty"` // 0 means the default 1
	X        float64 `json:"x,omitempty"`
	// Xs is the target list of a searchtimes query, evaluated in one
	// pass through the compiled kernel.
	Xs      []float64 `json:"xs,omitempty"`
	K       int       `json:"k,omitempty"` // 0 means the worst-case detection rank
	Faulty  []int     `json:"faulty"`      // nil means the adversarial worst case
	Tmax    float64   `json:"tmax,omitempty"`
	Horizon float64   `json:"horizon,omitempty"`
	// Model selects the fault model ("" or "crash" for the paper's
	// model, "byzantine" for the voting detection rule) and Votes an
	// explicit Byzantine vote threshold (0 means the default f+1).
	Model string `json:"model,omitempty"`
	Votes int    `json:"votes,omitempty"`
	// Liars lists robots that actively lie in a timeline query
	// (byzantine model only); they count against the fault budget
	// together with Faulty, which under byzantine lists silent robots.
	Liars []int `json:"liars,omitempty"`
	// Objective selects the searchtime figure of merit: "" or "worst"
	// for the deterministic worst case, "expected" for the expected
	// detection time when surviving robots miss each visit with
	// probability P. Speeds optionally scales the fleet (one entry
	// broadcasts, otherwise one per robot). None of the three enters
	// the plan-cache key: they are evaluation-time parameters of the
	// same compiled plan.
	Objective string    `json:"objective,omitempty"`
	P         float64   `json:"p,omitempty"`
	Speeds    []float64 `json:"speeds,omitempty"`
}

// apiError carries the HTTP status a failed evaluation maps to.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// statusOf maps an evaluation error to an HTTP status. Transient
// failures (injected faults, and any evaluator error that opts into the
// Transient() contract) are the server's fault and map to a 503 the
// client should retry; everything else a query can make the library
// reject is the client's fault.
func statusOf(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	if faultpoint.IsTransient(err) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// pointJSON is a space–time point in wire format.
type pointJSON struct {
	T float64 `json:"t"`
	X float64 `json:"x"`
}

// PlanResult answers /v1/plan: the plan's parameters, guarantees and
// geometry.
type PlanResult struct {
	N        int     `json:"n"`
	F        int     `json:"f"`
	Strategy string  `json:"strategy"`
	MinDist  float64 `json:"mindist"`
	// Model and DetectionRank describe the detection rule; both are
	// omitted for crash plans, whose responses predate the fault-model
	// surface and stay byte-identical.
	Model            string        `json:"model,omitempty"`
	Votes            int           `json:"votes,omitempty"`
	DetectionRank    int           `json:"detection_rank,omitempty"`
	Regime           string        `json:"regime"`
	CompetitiveRatio float64       `json:"competitive_ratio"`
	UpperBound       *float64      `json:"upper_bound"`
	LowerBound       *float64      `json:"lower_bound"`
	Beta             *float64      `json:"beta,omitempty"`
	Expansion        *float64      `json:"expansion,omitempty"`
	Horizon          float64       `json:"horizon"`
	TurningPoints    [][]pointJSON `json:"turning_points"`
}

// SearchTimeResult answers /v1/searchtime. Time and Ratio are null when
// the plan cannot guarantee detection at x (the visit time is infinite).
// Under objective=expected, Time is the expected detection time over
// the per-visit miss coins, null when the expectation diverges; the
// Objective, P and Speeds fields echo the request and are omitted for
// the deterministic default, whose responses stay byte-identical.
type SearchTimeResult struct {
	N             int       `json:"n"`
	F             int       `json:"f"`
	Strategy      string    `json:"strategy"`
	Model         string    `json:"model,omitempty"`
	DetectionRank int       `json:"detection_rank,omitempty"`
	X             float64   `json:"x"`
	K             int       `json:"k"`
	Objective     string    `json:"objective,omitempty"`
	P             float64   `json:"p,omitempty"`
	Speeds        []float64 `json:"speeds,omitempty"`
	Time          *float64  `json:"time"`
	Ratio         *float64  `json:"ratio"`
	Detected      bool      `json:"detected"`
}

// SearchTimesResult answers a searchtimes query: one worst-case
// detection time per target, evaluated in a single pass through the
// compiled kernel. Times[i] is null when the plan cannot guarantee
// detection at Xs[i].
type SearchTimesResult struct {
	N             int        `json:"n"`
	F             int        `json:"f"`
	Strategy      string     `json:"strategy"`
	Model         string     `json:"model,omitempty"`
	DetectionRank int        `json:"detection_rank,omitempty"`
	Xs            []float64  `json:"xs"`
	Times         []*float64 `json:"times"`
	Detected      int        `json:"detected"`
}

// EventResult is one timeline entry in wire format.
type EventResult struct {
	T     float64 `json:"t"`
	Robot int     `json:"robot"`
	Kind  string  `json:"kind"`
	X     float64 `json:"x"`
}

// TimelineResult answers /v1/timeline.
type TimelineResult struct {
	N             int           `json:"n"`
	F             int           `json:"f"`
	Strategy      string        `json:"strategy"`
	Model         string        `json:"model,omitempty"`
	DetectionRank int           `json:"detection_rank,omitempty"`
	X             float64       `json:"x"`
	Faulty        []int         `json:"faulty"`
	Liars         []int         `json:"liars,omitempty"`
	Tmax          float64       `json:"tmax"`
	Events        []EventResult `json:"events"`
	Detected      bool          `json:"detected"`
	DetectionTime *float64      `json:"detection_time"`
}

// LowerBoundResult answers /v1/lowerbound: the pair-level closed forms,
// no plan construction needed.
type LowerBoundResult struct {
	N          int      `json:"n"`
	F          int      `json:"f"`
	Regime     string   `json:"regime"`
	UpperBound *float64 `json:"upper_bound"`
	LowerBound *float64 `json:"lower_bound"`
	Beta       *float64 `json:"beta,omitempty"`
	Expansion  *float64 `json:"expansion,omitempty"`
}

// finitePtr returns a pointer to v, or nil when v is NaN or infinite —
// encoding/json cannot represent non-finite values, so they become null.
func finitePtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// normalize fills defaults and rejects out-of-domain values that the
// JSON decoding path cannot have caught. Library-level validation
// (n vs f, strategy names, target domain) happens in eval via the
// hardened linesearch API.
func (q *Query) normalize() error {
	switch q.Op {
	case OpPlan, OpSearchTime, OpSearchTimes, OpTimeline, OpLowerBound:
	case "":
		return badRequest("missing op")
	default:
		return badRequest("unknown op %q (known: plan, searchtime, searchtimes, timeline, lowerbound)", q.Op)
	}
	if q.MinDist == 0 {
		q.MinDist = 1
	}
	if math.IsNaN(q.MinDist) || math.IsInf(q.MinDist, 0) || q.MinDist <= 0 {
		return badRequest("mindist must be a positive finite number, got %g", q.MinDist)
	}
	if math.IsNaN(q.X) || math.IsInf(q.X, 0) {
		return badRequest("x must be a finite number, got %g", q.X)
	}
	if q.Op == OpSearchTimes {
		if len(q.Xs) == 0 {
			return badRequest("searchtimes requires a non-empty xs list")
		}
		if len(q.Xs) > maxBatchTargets {
			return badRequest("xs lists %d targets, the limit is %d", len(q.Xs), maxBatchTargets)
		}
		for i, x := range q.Xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return badRequest("xs[%d] must be a finite number, got %g", i, x)
			}
		}
	}
	for _, h := range []float64{q.Tmax, q.Horizon} {
		if math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
			return badRequest("horizons must be finite and non-negative, got %g", h)
		}
	}
	if q.Tmax > maxHorizonFactor*q.MinDist {
		return badRequest("tmax %g exceeds the maximum horizon %g", q.Tmax, maxHorizonFactor*q.MinDist)
	}
	if q.Horizon > maxHorizonFactor*q.MinDist {
		return badRequest("horizon %g exceeds the maximum horizon %g", q.Horizon, maxHorizonFactor*q.MinDist)
	}
	if q.K < 0 {
		return badRequest("k must be positive, got %d", q.K)
	}
	switch q.Model {
	case "", "byzantine":
	case "crash":
		// Crash is the default model: normalise so an explicit
		// model=crash shares the default's cache entry and response shape.
		q.Model = ""
	default:
		return badRequest("unknown fault model %q (want crash or byzantine)", q.Model)
	}
	if q.Votes < 0 {
		return badRequest("votes must be positive, got %d", q.Votes)
	}
	if q.Votes > 0 && q.Model != "byzantine" {
		return badRequest("votes requires model=byzantine")
	}
	if len(q.Liars) > 0 && q.Op != OpTimeline {
		return badRequest("liars is only valid for timeline queries")
	}
	switch q.Objective {
	case "":
	case "worst":
		// Worst-case is the default objective: normalise so an explicit
		// objective=worst shares the default's response shape.
		q.Objective = ""
	case "expected":
		if q.Op != OpSearchTime {
			return badRequest("objective is only valid for searchtime queries")
		}
		if q.Model == "byzantine" {
			return badRequest("objective=expected requires the crash detection rule, not byzantine voting")
		}
		if q.K != 0 {
			return badRequest("k is incompatible with objective=expected (detection is the first surviving confirmation)")
		}
	default:
		return badRequest("unknown objective %q (want worst or expected)", q.Objective)
	}
	if math.IsNaN(q.P) || q.P < 0 || q.P >= 1 {
		return badRequest("p must lie in [0, 1), got %g", q.P)
	}
	if q.P > 0 && q.Objective != "expected" {
		return badRequest("p requires objective=expected")
	}
	if len(q.Speeds) > 0 {
		if q.Op != OpSearchTime {
			return badRequest("speeds is only valid for searchtime queries")
		}
		for i, v := range q.Speeds {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return badRequest("speeds[%d] must be positive and finite, got %g", i, v)
			}
		}
		if len(q.Speeds) != 1 && len(q.Speeds) != q.N {
			return badRequest("speeds lists %d entries for n=%d robots (one entry broadcasts)", len(q.Speeds), q.N)
		}
		if q.K != 0 {
			return badRequest("k requires unit speeds")
		}
	}
	// Liars additionally require a byzantine plan; the plan itself
	// enforces that (the model can come from model= or the strategy
	// name), so the check lives in eval.
	return nil
}

// key returns the plan-cache key for the query.
func (q Query) key() PlanKey {
	return PlanKey{N: q.N, F: q.F, Strategy: q.Strategy, MinDist: q.MinDist,
		Model: q.Model, Votes: q.Votes}
}

// eval answers one query. It is the single evaluation path shared by
// the GET endpoints and the batch fan-out. A sampled request gets an
// "eval" stage span annotated with the op and cache outcome; untraced
// requests pay nothing for the hooks.
func (s *Service) eval(ctx context.Context, q Query) (any, error) {
	if err := q.normalize(); err != nil {
		return nil, err
	}
	if err := faultpoint.Hit(fpServiceEval); err != nil {
		return nil, err
	}
	ctx, span := telemetry.StartSpan(ctx, "eval")
	span.SetStr("op", q.Op)
	res, err := s.evalOp(ctx, q)
	if err != nil {
		span.SetStr("error", err.Error())
	}
	span.End()
	return res, err
}

func (s *Service) evalOp(ctx context.Context, q Query) (any, error) {
	switch q.Op {
	case OpPlan:
		return s.evalPlan(ctx, q)
	case OpSearchTime:
		return s.evalSearchTime(ctx, q)
	case OpSearchTimes:
		return s.evalSearchTimes(ctx, q)
	case OpTimeline:
		return s.evalTimeline(ctx, q)
	case OpLowerBound:
		return s.evalLowerBound(q)
	}
	return nil, badRequest("unknown op %q", q.Op)
}

// plan fetches the cached (or freshly built) plan for q, annotating
// the surrounding span with the cache outcome.
func (s *Service) plan(ctx context.Context, q Query) (*Plan, error) {
	plan, hit, err := s.cache.GetCtx(ctx, q.key())
	telemetry.SpanFrom(ctx).SetBool("cache_hit", hit)
	return plan, err
}

func (s *Service) evalPlan(ctx context.Context, q Query) (any, error) {
	plan, err := s.plan(ctx, q)
	if err != nil {
		return nil, err
	}
	horizon := q.Horizon
	if horizon == 0 {
		horizon = 50 * q.MinDist
	}
	_, geom := telemetry.StartSpan(ctx, "plan.geometry")
	pts, err := plan.Searcher.TurningPoints(horizon)
	if err != nil {
		geom.End()
		return nil, err
	}
	robots := make([][]pointJSON, len(pts))
	for i, ps := range pts {
		if len(ps) > maxTurningPoints {
			ps = ps[:maxTurningPoints]
		}
		robots[i] = make([]pointJSON, len(ps))
		for j, p := range ps {
			robots[i][j] = pointJSON{T: p.T, X: p.X}
		}
	}
	// A byzantine plan's schedule is the crash base at the effective
	// budget rank-1, so the pair-level closed forms apply there.
	boundsF := q.F
	if plan.Searcher.FaultModel() == "byzantine" {
		boundsF = plan.Searcher.DetectionRank() - 1
	}
	bounds, err := linesearch.Bounds(q.N, boundsF)
	geom.SetInt("robots", int64(len(robots)))
	geom.End()
	if err != nil {
		return nil, err
	}
	res := PlanResult{
		N:                q.N,
		F:                q.F,
		Strategy:         plan.Searcher.Strategy(),
		MinDist:          q.MinDist,
		Regime:           bounds.Regime,
		CompetitiveRatio: plan.CR,
		UpperBound:       finitePtr(bounds.Upper),
		LowerBound:       finitePtr(bounds.Lower),
		Beta:             finitePtr(bounds.Beta),
		Expansion:        finitePtr(bounds.Expansion),
		Horizon:          horizon,
		TurningPoints:    robots,
	}
	if m := plan.Searcher.FaultModel(); m != "crash" {
		res.Model = m
		res.DetectionRank = plan.Searcher.DetectionRank()
		if m == "byzantine" {
			res.Votes = plan.Searcher.Votes()
		}
	}
	return res, nil
}

func (s *Service) evalSearchTime(ctx context.Context, q Query) (any, error) {
	plan, err := s.plan(ctx, q)
	if err != nil {
		return nil, err
	}
	rank := plan.Searcher.DetectionRank()
	k := q.K
	if k == 0 {
		k = rank
	}
	var t float64
	switch {
	case q.Objective == "expected":
		t, err = plan.Searcher.ExpectedSearchTime(q.X, q.P, q.Speeds)
	case len(q.Speeds) > 0:
		t, err = plan.Searcher.SearchTimeWithSpeeds(q.X, q.Speeds)
	case k == rank:
		t, err = plan.Searcher.SearchTime(q.X)
	default:
		t, err = plan.Searcher.KthVisitTime(q.X, k)
	}
	if err != nil {
		return nil, err
	}
	res := SearchTimeResult{
		N:         q.N,
		F:         q.F,
		Strategy:  plan.Searcher.Strategy(),
		X:         q.X,
		K:         k,
		Objective: q.Objective,
		P:         q.P,
		Speeds:    q.Speeds,
		Detected:  !math.IsInf(t, 1),
	}
	if m := plan.Searcher.FaultModel(); m != "crash" {
		res.Model = m
		res.DetectionRank = rank
	}
	if res.Detected {
		res.Time = finitePtr(t)
		res.Ratio = finitePtr(t / math.Abs(q.X))
	}
	return res, nil
}

func (s *Service) evalSearchTimes(ctx context.Context, q Query) (any, error) {
	plan, err := s.plan(ctx, q)
	if err != nil {
		return nil, err
	}
	times, err := plan.Searcher.SearchTimesContext(ctx, q.Xs)
	if err != nil {
		return nil, err
	}
	res := SearchTimesResult{
		N:        q.N,
		F:        q.F,
		Strategy: plan.Searcher.Strategy(),
		Xs:       q.Xs,
		Times:    make([]*float64, len(times)),
	}
	if m := plan.Searcher.FaultModel(); m != "crash" {
		res.Model = m
		res.DetectionRank = plan.Searcher.DetectionRank()
	}
	for i, t := range times {
		res.Times[i] = finitePtr(t)
		if res.Times[i] != nil {
			res.Detected++
		}
	}
	return res, nil
}

func (s *Service) evalTimeline(ctx context.Context, q Query) (any, error) {
	plan, err := s.plan(ctx, q)
	if err != nil {
		return nil, err
	}
	searcher := plan.Searcher
	faulty := q.Faulty
	if faulty == nil && len(q.Liars) == 0 {
		// The adversarial worst case corrupts the earliest visitors;
		// with an explicit liar list the caller owns the assignment.
		faulty = searcher.WorstFaultSet(q.X)
		if faulty == nil {
			faulty = []int{}
		}
	}
	if faulty == nil {
		faulty = []int{}
	}
	tmax := q.Tmax
	if tmax == 0 {
		worst, err := searcher.SearchTime(q.X)
		if err != nil {
			return nil, err
		}
		tmax = 1.05 * worst
		if math.IsInf(tmax, 1) || tmax > maxHorizonFactor*q.MinDist {
			tmax = 100 * math.Abs(q.X)
		}
	}
	_, span := telemetry.StartSpan(ctx, "timeline.events")
	var events []linesearch.Event
	if searcher.FaultModel() == "byzantine" || len(q.Liars) > 0 {
		// TimelineFaults rejects liars on a crash plan.
		events, err = searcher.TimelineFaults(q.X, faulty, q.Liars, tmax)
	} else {
		events, err = searcher.Timeline(q.X, faulty, tmax)
	}
	span.SetInt("events", int64(len(events)))
	span.End()
	if err != nil {
		return nil, err
	}
	res := TimelineResult{
		N:        q.N,
		F:        q.F,
		Strategy: searcher.Strategy(),
		X:        q.X,
		Faulty:   faulty,
		Liars:    q.Liars,
		Tmax:     tmax,
		Events:   make([]EventResult, len(events)),
	}
	if m := searcher.FaultModel(); m != "crash" {
		res.Model = m
		res.DetectionRank = searcher.DetectionRank()
	}
	for i, e := range events {
		res.Events[i] = EventResult{T: e.T, Robot: e.Robot, Kind: e.Kind, X: e.X}
		if e.Kind == "detect" && !res.Detected {
			res.Detected = true
			res.DetectionTime = finitePtr(e.T)
		}
	}
	return res, nil
}

func (s *Service) evalLowerBound(q Query) (any, error) {
	bounds, err := linesearch.Bounds(q.N, q.F)
	if err != nil {
		return nil, err
	}
	return LowerBoundResult{
		N:          q.N,
		F:          q.F,
		Regime:     bounds.Regime,
		UpperBound: finitePtr(bounds.Upper),
		LowerBound: finitePtr(bounds.Lower),
		Beta:       finitePtr(bounds.Beta),
		Expansion:  finitePtr(bounds.Expansion),
	}, nil
}

// --- URL parameter parsing -------------------------------------------

// paramSpec lists the parameters each op accepts; anything else in the
// query string is a 400 (catches typos like "stratgy" that would
// otherwise be silently ignored).
var paramSpec = map[string]map[string]bool{
	OpPlan:        {"n": true, "f": true, "strategy": true, "mindist": true, "horizon": true, "model": true, "votes": true},
	OpSearchTime:  {"n": true, "f": true, "strategy": true, "mindist": true, "x": true, "k": true, "model": true, "votes": true, "objective": true, "p": true, "speeds": true},
	OpSearchTimes: {"n": true, "f": true, "strategy": true, "mindist": true, "xs": true, "model": true, "votes": true},
	OpTimeline:    {"n": true, "f": true, "strategy": true, "mindist": true, "x": true, "faulty": true, "tmax": true, "model": true, "votes": true, "liars": true},
	OpLowerBound:  {"n": true, "f": true},
}

// parseQuery builds a Query for op from URL parameters.
func parseQuery(op string, v url.Values) (Query, error) {
	q := Query{Op: op}
	allowed := paramSpec[op]
	for name := range v {
		if !allowed[name] {
			return q, badRequest("unknown parameter %q for %s", name, op)
		}
		if len(v[name]) > 1 {
			return q, badRequest("parameter %q given %d times", name, len(v[name]))
		}
	}

	var err error
	if q.N, err = intParam(v, "n", 0); err != nil {
		return q, err
	}
	if q.F, err = intParam(v, "f", -1); err != nil {
		return q, err
	}
	if !v.Has("n") || !v.Has("f") {
		return q, badRequest("parameters n and f are required")
	}
	q.Strategy = v.Get("strategy")
	if q.MinDist, err = floatParam(v, "mindist", 1); err != nil {
		return q, err
	}
	if q.X, err = floatParam(v, "x", 0); err != nil {
		return q, err
	}
	if (op == OpSearchTime || op == OpTimeline) && !v.Has("x") {
		return q, badRequest("parameter x is required for %s", op)
	}
	if q.K, err = intParam(v, "k", 0); err != nil {
		return q, err
	}
	if q.Tmax, err = floatParam(v, "tmax", 0); err != nil {
		return q, err
	}
	if q.Horizon, err = floatParam(v, "horizon", 0); err != nil {
		return q, err
	}
	q.Model = v.Get("model")
	if q.Votes, err = intParam(v, "votes", 0); err != nil {
		return q, err
	}
	if raw := v.Get("faulty"); raw != "" {
		if q.Faulty, err = parseIndexList(raw); err != nil {
			return q, err
		}
	}
	if raw := v.Get("liars"); raw != "" {
		if q.Liars, err = parseIndexList(raw); err != nil {
			return q, err
		}
	}
	if raw := v.Get("xs"); raw != "" {
		if q.Xs, err = parseFloatList(raw, "target position"); err != nil {
			return q, err
		}
	}
	q.Objective = v.Get("objective")
	if q.P, err = floatParam(v, "p", 0); err != nil {
		return q, err
	}
	if raw := v.Get("speeds"); raw != "" {
		if q.Speeds, err = parseFloatList(raw, "speed"); err != nil {
			return q, err
		}
	}
	if op == OpSearchTimes && len(q.Xs) == 0 {
		return q, badRequest("parameter xs is required for %s", op)
	}
	return q, nil
}

// intParam parses an optional integer parameter.
func intParam(v url.Values, name string, def int) (int, error) {
	raw := v.Get(name)
	if raw == "" {
		return def, nil
	}
	i, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("parameter %q must be an integer, got %q", name, raw)
	}
	return i, nil
}

// floatParam parses an optional finite float parameter.
func floatParam(v url.Values, name string, def float64) (float64, error) {
	raw := v.Get(name)
	if raw == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, badRequest("parameter %q must be a number, got %q", name, raw)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, badRequest("parameter %q must be finite, got %q", name, raw)
	}
	return f, nil
}

// parseFloatList parses "1.5,-2,40" into a float list; noun names the
// entries in the rejection message.
func parseFloatList(raw, noun string) ([]float64, error) {
	parts := strings.Split(raw, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, badRequest("invalid %s %q", noun, p)
		}
		out = append(out, x)
	}
	return out, nil
}

// parseIndexList parses "0,2,5" into an index list.
func parseIndexList(raw string) ([]int, error) {
	parts := strings.Split(raw, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		idx, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, badRequest("invalid robot index %q", p)
		}
		out = append(out, idx)
	}
	return out, nil
}

// --- HTTP handlers ----------------------------------------------------

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON marshals v and writes it with the given status. Marshal
// errors turn into a 500 (they indicate a server bug, not bad input).
func (s *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		s.logger.Error("marshal response", "err", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":"internal: cannot encode response"}`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
	w.Write([]byte("\n"))
}

// writeError writes the uniform error payload. Shed and transiently
// failing responses carry Retry-After: the condition is momentary, and
// well-behaved clients back off instead of hammering.
func (s *Service) writeError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, status, errorBody{Error: msg})
}

// handleQuery serves one GET endpoint backed by eval.
func (s *Service) handleQuery(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, err := parseQuery(op, r.URL.Query())
		if err != nil {
			s.writeError(w, statusOf(err), err.Error())
			return
		}
		res, err := s.eval(r.Context(), q)
		if err != nil {
			s.writeError(w, statusOf(err), err.Error())
			return
		}
		s.writeJSON(w, http.StatusOK, res)
	}
}

// BatchRequest is the POST /v1/batch payload.
type BatchRequest struct {
	Queries []Query `json:"queries"`
}

// BatchItem is one element of a batch response. Failed queries report
// ok=false and an error; the batch as a whole still returns 200.
type BatchItem struct {
	OK     bool   `json:"ok"`
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// BatchResponse answers POST /v1/batch.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	Errors  int         `json:"errors"`
}

// handleBatch fans a list of queries out over the worker pool and
// reports per-query results.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req BatchRequest
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid batch body: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds the limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}

	items := make([]BatchItem, len(req.Queries))
	ctx, span := telemetry.StartSpan(r.Context(), "batch.fanout")
	span.SetInt("queries", int64(len(req.Queries)))
	span.SetInt("workers", int64(s.cfg.BatchWorkers))
	err := forEach(ctx, len(req.Queries), s.cfg.BatchWorkers, func(i int) {
		res, err := s.eval(ctx, req.Queries[i])
		if err != nil {
			items[i] = BatchItem{OK: false, Error: err.Error()}
			return
		}
		items[i] = BatchItem{OK: true, Result: res}
	})
	span.End()
	if err != nil {
		// The client went away or the request timed out mid-batch.
		s.writeError(w, http.StatusServiceUnavailable, "batch cancelled: "+err.Error())
		return
	}
	resp := BatchResponse{Results: items}
	for _, it := range items {
		if !it.OK {
			resp.Errors++
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the counters in the Prometheus text exposition
// format, whatever the request's Accept header or query.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot(s.cache.Stats(), s.sweeps.Stats(), s.resilience())
	snap.Traces = s.tracer.Stats()
	snap.JournalEvents = s.journal.Counts()
	w.Header().Set("Content-Type", telemetry.ExpositionContentType)
	writePrometheus(w, snap)
}

// resilience snapshots the admission-control and fault-injection
// counters for /metrics.
func (s *Service) resilience() ResilienceStats {
	rs := ResilienceStats{
		Shed:     make(map[string]int64, len(s.limiters)),
		Inflight: make(map[string]int64, len(s.limiters)),
	}
	for name, lim := range s.limiters {
		rs.Shed[name] = lim.shed.Load()
		rs.Inflight[name] = lim.inflight.Load()
	}
	fp := faultpoint.Stats()
	rs.FaultPointsArmed = fp.Armed
	rs.FaultsInjected = fp.Injected
	return rs
}

// handleHealthz is the liveness probe.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
