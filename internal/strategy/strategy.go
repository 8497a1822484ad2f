// Package strategy defines the Strategy interface — a named recipe that
// turns a pair (n, f) into robot trajectories — and implements the
// paper's proportional schedule algorithm A(n, f) alongside the
// baselines it is measured against: the trivial two-group sweep for
// n >= 2f+2, the group-doubling strategy (competitive ratio 9 for every
// f < n), and cone schedules at arbitrary beta for the ablation sweep.
package strategy

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"linesearch/internal/analysis"
	"linesearch/internal/trajectory"
)

// Strategy builds trajectories for n robots of which at most f are
// faulty. Implementations must be stateless and safe for concurrent use.
type Strategy interface {
	// Name returns a short identifier (stable; used by the CLI).
	Name() string
	// Description returns a one-line human-readable summary.
	Description() string
	// Build returns one trajectory per robot. Robots that follow the
	// same schedule share one *trajectory.Trajectory: evaluators group
	// robots by pointer and evaluate each distinct trajectory once, so
	// sharing is what makes a group of identical robots cheap. Distinct
	// pointers with equal content are correct, just not deduplicated.
	Build(n, f int) ([]*trajectory.Trajectory, error)
	// AnalyticCR returns the closed-form competitive ratio when one is
	// known, with ok = false otherwise.
	AnalyticCR(n, f int) (cr float64, ok bool)
}

// Registry returns the built-in strategies, sorted by name.
func Registry() []Strategy {
	ss := []Strategy{
		Proportional{},
		TwoGroup{},
		Doubling{},
		Byzantine{},
		PFaultySearch{},
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Name() < ss[j].Name() })
	return ss
}

// Parse resolves a strategy by name. In addition to the registry names,
// "cone:<beta>" selects a proportional schedule with an explicit cone
// slope (e.g. "cone:2.5"), "uniform:<beta>" the uniformly spaced
// ablation schedule in the same cone, and "byzantine[@<votes>][:<base>]"
// the Byzantine voting-rule family — optionally with an explicit vote
// threshold and an explicit crash base (e.g. "byzantine@3:cone:2.5").
// "pfaulty[:<p>[:<gamma>]]" selects the probabilistic half-line family
// with per-visit miss probability p and optional excursion growth gamma
// (e.g. "pfaulty:0.3", "pfaulty:0.3:2.5").
func Parse(name string) (Strategy, error) {
	if isByzantineName(name) {
		return parseByzantine(name)
	}
	if isPFaultyName(name) {
		return parsePFaulty(name)
	}
	if rest, ok := strings.CutPrefix(name, "cone:"); ok {
		beta, err := parseBeta(rest)
		if err != nil {
			return nil, err
		}
		return Cone{Beta: beta}, nil
	}
	if rest, ok := strings.CutPrefix(name, "uniform:"); ok {
		beta, err := parseBeta(rest)
		if err != nil {
			return nil, err
		}
		return UniformCone{Beta: beta}, nil
	}
	for _, s := range Registry() {
		if s.Name() == name {
			return s, nil
		}
	}
	names := make([]string, 0, len(Registry()))
	for _, s := range Registry() {
		names = append(names, s.Name())
	}
	return nil, fmt.Errorf("strategy: unknown strategy %q (known: %s, cone:<beta>, uniform:<beta>, byzantine[@votes][:base], pfaulty[:p[:gamma]])", name, strings.Join(names, ", "))
}

// parseBeta parses a cone slope argument and enforces beta > 1.
func parseBeta(s string) (float64, error) {
	beta, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("strategy: invalid cone slope %q: %w", s, err)
	}
	if math.IsInf(beta, 0) || !(beta > 1) {
		return 0, fmt.Errorf("strategy: cone slope must be finite and exceed 1, got %v", beta)
	}
	return beta, nil
}

// ForPair returns the paper's recommended strategy for (n, f): the
// trivial two-group sweep when n >= 2f+2, and A(n, f) otherwise.
func ForPair(n, f int) (Strategy, error) {
	regime, err := analysis.Classify(n, f)
	if err != nil {
		return nil, err
	}
	switch regime {
	case analysis.RegimeTrivial:
		return TwoGroup{}, nil
	case analysis.RegimeProportional:
		return Proportional{}, nil
	default:
		return nil, fmt.Errorf("strategy: no strategy guarantees detection for n=%d, f=%d", n, f)
	}
}

// groupDoublingCR is the competitive ratio of any strategy in which all
// robots move together along the optimal single-robot doubling
// trajectory. The classic result of Beck and Newman; also Theorem 1 at
// n = f+1.
const groupDoublingCR = 9
