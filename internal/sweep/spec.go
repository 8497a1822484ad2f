// Package sweep runs large parameter sweeps — cartesian grids over
// (n, f, strategy, beta) with a shared target range — as resumable
// background jobs. Each grid cell builds the strategy's plan, measures
// its empirical competitive ratio with internal/sim, and cross-checks
// the measurement against the internal/analysis closed form when one
// exists. Jobs execute on a bounded worker pool, track progress, honour
// cooperative cancellation, and periodically checkpoint completed cells
// to disk as JSON so an interrupted daemon resumes where it stopped
// instead of recomputing. Finished jobs export their cells as CSV and
// JSON datasets through internal/trace.
package sweep

import (
	"fmt"
	"math"
	"strings"

	"linesearch/internal/seal"
	"linesearch/internal/strategy"
)

// StrategyAuto selects the paper's recommended strategy per (n, f)
// cell: twogroup in the trivial regime, A(n, f) otherwise.
const StrategyAuto = "auto"

// Spec describes one sweep: the cartesian grid and the target range the
// empirical competitive ratio is measured over. The grid is
// strategies x N x F, where the strategy axis is Strategies followed by
// one "cone:<beta>" entry per value in Betas. Distances are in units of
// the minimal target distance (the paper's normalisation of 1).
type Spec struct {
	// Name labels the exported dataset (default "sweep").
	Name string `json:"name,omitempty"`
	// N lists the robot counts of the grid (required, each >= 1).
	N []int `json:"n"`
	// F lists the fault budgets of the grid (required, each >= 0).
	F []int `json:"f"`
	// Strategies lists strategy names: any name strategy.Parse accepts,
	// or "auto" for the paper's per-pair recommendation. Default
	// ["auto"].
	Strategies []string `json:"strategies,omitempty"`
	// Betas appends one "cone:<beta>" strategy per value (each > 1).
	Betas []float64 `json:"betas,omitempty"`
	// FaultModels lists the fault models every (strategy, n, f) cell is
	// evaluated under: "crash", "byzantine", or "byzantine@<votes>" (an
	// explicit vote threshold). Byzantine entries wrap each strategy in
	// the voting-rule family at the cell's budget. Empty means crash
	// only — the field is omitted from the normalised spec, so the
	// content hash (and therefore job identity and resume) of every
	// pre-existing crash-only spec is unchanged.
	FaultModels []string `json:"fault_models,omitempty"`
	// P lists ambient per-visit miss probabilities (each in [0, 1)):
	// every grid cell is additionally evaluated under the expected-time
	// objective with its non-crashed robots p-faulty at each value.
	// Empty means deterministic-only evaluation — the field is omitted
	// from the normalised spec, so the content hash (and therefore job
	// identity, resume and datasets) of every pre-existing crash-only
	// spec is unchanged.
	P []float64 `json:"p,omitempty"`
	// Speeds lists per-robot speed vectors for the heterogeneous-speed
	// axis. A length-1 vector broadcasts its speed to the whole fleet;
	// longer vectors must match every n in N. Empty means unit speeds
	// (implied, hash-neutral like P).
	Speeds [][]float64 `json:"speeds,omitempty"`
	// XMin is the smallest target distance measured (default 1).
	XMin float64 `json:"xmin,omitempty"`
	// XMax is the largest target distance measured (default 100*XMin).
	XMax float64 `json:"xmax,omitempty"`
	// GridPoints is the per-half-line safety grid density of the
	// empirical CR search (default 64; the turning-point candidates that
	// actually attain the supremum are always evaluated).
	GridPoints int `json:"grid_points,omitempty"`
	// Eps is the relative probe offset past turning points (default
	// 1e-12, which keeps the measured supremum within ~1e-11 of the
	// closed form).
	Eps float64 `json:"eps,omitempty"`
}

// specDefaults fills zero fields in place.
func (s *Spec) applyDefaults() {
	if s.Name == "" {
		s.Name = "sweep"
	}
	if len(s.Strategies) == 0 && len(s.Betas) == 0 {
		s.Strategies = []string{StrategyAuto}
	}
	if s.XMin == 0 {
		s.XMin = 1
	}
	if s.XMax == 0 {
		s.XMax = 100 * s.XMin
	}
	if s.GridPoints == 0 {
		s.GridPoints = 64
	}
	if s.Eps == 0 {
		s.Eps = 1e-12
	}
}

// Validate applies defaults and rejects specs the engine cannot run.
// It mutates the receiver (filling defaults) so the stored, hashed and
// checkpointed spec is always the normalised one.
func (s *Spec) Validate() error {
	s.applyDefaults()
	if len(s.N) == 0 {
		return fmt.Errorf("sweep: spec needs at least one n value")
	}
	if len(s.F) == 0 {
		return fmt.Errorf("sweep: spec needs at least one f value")
	}
	for _, n := range s.N {
		if n < 1 {
			return fmt.Errorf("sweep: n values must be >= 1, got %d", n)
		}
	}
	for _, f := range s.F {
		if f < 0 {
			return fmt.Errorf("sweep: f values must be >= 0, got %d", f)
		}
	}
	for _, name := range s.Strategies {
		if name == StrategyAuto {
			continue
		}
		if _, err := strategy.Parse(name); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, beta := range s.Betas {
		if math.IsNaN(beta) || math.IsInf(beta, 0) || !(beta > 1) {
			return fmt.Errorf("sweep: beta values must be finite and exceed 1, got %v", beta)
		}
	}
	for _, m := range s.FaultModels {
		if err := validateModelName(m); err != nil {
			return err
		}
		if m == ModelCrash {
			continue
		}
		// Byzantine models wrap every strategy entry; reject compositions
		// that cannot parse (most usefully, nested byzantine strategies).
		for _, name := range s.Strategies {
			if name == StrategyAuto {
				continue
			}
			if _, err := strategy.Parse(ComposeStrategy(m, name)); err != nil {
				return fmt.Errorf("sweep: fault model %q cannot wrap strategy %q: %w", m, name, err)
			}
		}
	}
	for _, p := range s.P {
		if math.IsNaN(p) || !(p >= 0 && p < 1) {
			return fmt.Errorf("sweep: p values must lie in [0, 1), got %v", p)
		}
	}
	for _, v := range s.Speeds {
		if len(v) == 0 {
			return fmt.Errorf("sweep: speed vectors must not be empty")
		}
		for _, sp := range v {
			if math.IsNaN(sp) || math.IsInf(sp, 0) || sp <= 0 {
				return fmt.Errorf("sweep: speeds must be positive finite numbers, got %v", sp)
			}
		}
		if len(v) > 1 {
			for _, n := range s.N {
				if n != len(v) {
					return fmt.Errorf("sweep: speed vector length %d does not match n=%d (use a single speed to broadcast)", len(v), n)
				}
			}
		}
	}
	if len(s.P) > 0 || len(s.Speeds) > 0 {
		// The stochastic axes evaluate expected detection time through
		// the analytic series, which needs a single-vote detection rule
		// and owns the p parameter itself.
		for _, m := range s.FaultModels {
			if m != ModelCrash {
				return fmt.Errorf("sweep: the p/speeds axes need the crash detection rule (votes=1); fault model %q cannot combine with them — run separate sweeps", m)
			}
		}
	}
	if math.IsNaN(s.XMin) || math.IsInf(s.XMin, 0) || s.XMin <= 0 {
		return fmt.Errorf("sweep: xmin must be a positive finite number, got %g", s.XMin)
	}
	if math.IsNaN(s.XMax) || math.IsInf(s.XMax, 0) || s.XMax <= s.XMin {
		return fmt.Errorf("sweep: xmax (%g) must be finite and exceed xmin (%g)", s.XMax, s.XMin)
	}
	if s.GridPoints < 2 {
		return fmt.Errorf("sweep: grid_points must be >= 2, got %d", s.GridPoints)
	}
	if s.Eps <= 0 || s.Eps >= 1 {
		return fmt.Errorf("sweep: eps must be in (0, 1), got %g", s.Eps)
	}
	return nil
}

// ModelCrash is the fault-model axis entry selecting the source
// paper's crash model (also the implied axis when FaultModels is empty).
const ModelCrash = "crash"

// validateModelName accepts "crash", "byzantine", "byzantine@<votes>"
// and "pfaulty[:<p>[:<gamma>]]" (the probabilistic family brings its
// own half-line schedule, so it pairs only with the "auto" strategy
// entry). Byzantine entries with an embedded base (e.g.
// "byzantine:doubling") are rejected: the schedule shape belongs on the
// strategy axis, the detection rule on the model axis.
func validateModelName(name string) error {
	if name == ModelCrash {
		return nil
	}
	if name == "pfaulty" || strings.HasPrefix(name, "pfaulty:") {
		st, err := strategy.Parse(name)
		if err != nil {
			return fmt.Errorf("sweep: invalid fault model %q: %w", name, err)
		}
		if _, ok := st.(strategy.PFaultySearch); !ok {
			return fmt.Errorf("sweep: fault model %q is a strategy, want crash, byzantine[@votes] or pfaulty[:p[:gamma]]", name)
		}
		return nil
	}
	if strings.Contains(name, ":") {
		return fmt.Errorf("sweep: fault model %q must not name a base strategy (use the strategies axis), want crash, byzantine[@votes] or pfaulty[:p[:gamma]]", name)
	}
	st, err := strategy.Parse(name)
	if err != nil {
		return fmt.Errorf("sweep: invalid fault model %q: want crash, byzantine[@votes] or pfaulty[:p[:gamma]]: %w", name, err)
	}
	if _, ok := st.(strategy.Byzantine); !ok {
		return fmt.Errorf("sweep: fault model %q is a strategy, want crash, byzantine[@votes] or pfaulty[:p[:gamma]]", name)
	}
	return nil
}

// ComposeStrategy combines a fault-model axis entry with a strategy
// axis entry into the concrete strategy name a cell evaluates: crash
// (or the empty implied model) leaves the name alone; a byzantine model
// wraps it in the voting-rule family ("auto" keeps the wrapped family's
// own per-pair base selection).
func ComposeStrategy(model, name string) string {
	if model == "" || model == ModelCrash {
		return name
	}
	if name == StrategyAuto {
		return model
	}
	return model + ":" + name
}

// ModelAxis returns the fault-model axis, with the single implied
// crash entry ("") when FaultModels is empty — the empty string keeps
// pre-axis cells' composed strategy names (and datasets) unchanged.
func (s Spec) ModelAxis() []string {
	if len(s.FaultModels) == 0 {
		return []string{""}
	}
	return s.FaultModels
}

// StrategyAxis returns the expanded strategy axis: Strategies followed
// by one cone entry per beta. Cell results reference this list by
// index (the dataset's strategy_id column).
func (s Spec) StrategyAxis() []string {
	axis := make([]string, 0, len(s.Strategies)+len(s.Betas))
	axis = append(axis, s.Strategies...)
	for _, beta := range s.Betas {
		axis = append(axis, fmt.Sprintf("cone:%g", beta))
	}
	return axis
}

// pAxis returns the p axis values plus whether the axis is explicit
// (an empty axis enumerates one implied deterministic entry, keeping
// pre-axis cell indices, checkpoints and hashes unchanged).
func (s Spec) pAxis() ([]float64, bool) {
	if len(s.P) == 0 {
		return []float64{0}, false
	}
	return s.P, true
}

// speedAxis returns the speed-vector axis with the implied unit entry
// when empty, mirroring pAxis.
func (s Spec) speedAxis() ([][]float64, bool) {
	if len(s.Speeds) == 0 {
		return [][]float64{nil}, false
	}
	return s.Speeds, true
}

// CellCount returns the grid size
// |models| * |strategies| * |N| * |F| * |P| * |Speeds|.
func (s Spec) CellCount() int {
	ps, _ := s.pAxis()
	sp, _ := s.speedAxis()
	return len(s.ModelAxis()) * len(s.StrategyAxis()) * len(s.N) * len(s.F) * len(ps) * len(sp)
}

// CellParams identifies one grid cell plus the measurement parameters
// every cell shares. Index is the cell's position in the canonical
// enumeration order (model-major, then strategy, then n, then f) and is
// the resume key in checkpoints; with the implied single crash model
// the order (and so every pre-axis checkpoint index) is unchanged.
type CellParams struct {
	Index      int
	N          int
	F          int
	Strategy   string
	StrategyID int
	// FaultModel is the fault-model axis entry ("" for the implied
	// crash-only axis); ModelID is its index on that axis.
	FaultModel string
	ModelID    int
	// P is the ambient per-visit miss probability of the cell's p-axis
	// entry; HasP distinguishes an explicit 0 from the implied
	// deterministic axis. PID is the axis index.
	P    float64
	PID  int
	HasP bool
	// Speeds is the cell's per-robot speed vector (nil for the implied
	// unit axis; a single entry broadcasts); SpeedID is the axis index.
	Speeds     []float64
	SpeedID    int
	XMin       float64
	XMax       float64
	GridPoints int
	Eps        float64
}

// Cells enumerates the grid in canonical order (model-major, then
// strategy, n, f, p, speeds — the new axes are innermost, so with both
// implied every pre-axis checkpoint index is unchanged).
func (s Spec) Cells() []CellParams {
	models := s.ModelAxis()
	axis := s.StrategyAxis()
	ps, hasP := s.pAxis()
	speeds, _ := s.speedAxis()
	out := make([]CellParams, 0, s.CellCount())
	for mi, m := range models {
		for si, st := range axis {
			for _, n := range s.N {
				for _, f := range s.F {
					for pi, p := range ps {
						for vi, v := range speeds {
							out = append(out, CellParams{
								Index:      len(out),
								N:          n,
								F:          f,
								Strategy:   st,
								StrategyID: si,
								FaultModel: m,
								ModelID:    mi,
								P:          p,
								PID:        pi,
								HasP:       hasP,
								Speeds:     v,
								SpeedID:    vi,
								XMin:       s.XMin,
								XMax:       s.XMax,
								GridPoints: s.GridPoints,
								Eps:        s.Eps,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// Hash returns a stable content hash of the normalised spec. Job IDs
// derive from it, which is what makes resume work across restarts: the
// same spec always maps to the same job and checkpoint file.
func (s Spec) Hash() string { return seal.Hash(s) }

// JobID returns the deterministic job identifier for the spec.
func (s Spec) JobID() string {
	return "sw-" + s.Hash()[:12]
}

// ParseInts parses a comma-separated integer list ("3,5,7"), the CLI
// syntax for the N and F axes.
func ParseInts(raw string) ([]int, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &v); err != nil {
			return nil, fmt.Errorf("sweep: invalid integer %q in list %q", p, raw)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloats parses a comma-separated float list ("2.5,3"), the CLI
// syntax for the beta axis.
func ParseFloats(raw string) ([]float64, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%g", &v); err != nil {
			return nil, fmt.Errorf("sweep: invalid number %q in list %q", p, raw)
		}
		out = append(out, v)
	}
	return out, nil
}
