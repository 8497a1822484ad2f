// Command perfbench is the repository's benchmark: one command runs a
// named workload, checks every output, and prints every end-to-end
// metric with its unit; a separate traced run prints per-layer
// metrics, measured from outside each layer.
//
// It hosts the fleet in its own process: two service backends and one
// cluster router on loopback HTTP servers, configured with the
// daemons' flag defaults. Workloads, each a closed loop:
//
//	plan-zipf          GET /v1/plan through the router, zipf keys
//	searchtimes-batch  GET /v1/searchtimes through the router, 1000 targets each
//	sweep-grid         back-to-back sweep.Manager passes over a 486-cell grid
//
// Run from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload plan-zipf --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --steady 10 [--workload plan-zipf]
//
// The last line of standard output is the result object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// full report (provenance, settings, sample counts and bases). A run
// with any failed operation prints correct=false and exits 1. See
// README.md for the workloads, metrics and findings.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"
)

// setupRepeats is how many times a run sets its workload up from
// scratch; setup_s is the median. hostWarmup is how long the run first
// sets up untimed: a process that starts on an idle machine sets up
// about twice as slowly for its first second or so, and setup_s times
// the set-up, not the machine waking.
const (
	setupRepeats = 9
	hostWarmup   = 2 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	steady   int
	bench    benchmarkFile // BENCHMARK.json
	dir      string        // scratch directory for this run
}

func parseFlags(args []string, bench benchmarkFile) (options, error) {
	o := options{bench: bench}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: plan-zipf, searchtimes-batch or sweep-grid")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "length of each measured phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	fs.IntVar(&o.steady, "steady", 0, "run --workload (default every workload) this many times with seeds seed..seed+k-1 and print the spread of every end-to-end metric")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	switch {
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1")
	case o.steady > 0 && o.workload == "":
		return o, nil
	}
	for _, w := range bench.workloadNames() {
		if w == o.workload {
			return o, nil
		}
	}
	return o, fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, bench.workloadNames())
}

func main() {
	bench, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	opts, err := parseFlags(os.Args[1:], bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if opts.steady > 0 {
		if err := steady(opts); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, rep, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// value is one metric in the report, with what it was computed over.
type value struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Base    string  `json:"base,omitempty"`
	Moves   string  `json:"moves,omitempty"`
}

// outcome accumulates one run's counts, metrics and report details.
type outcome struct {
	tally
	bench   benchmarkFile
	values  map[string]value
	details map[string]any
}

// set records a metric; its unit comes from BENCHMARK.json, and a name
// BENCHMARK.json lacks is a bug in the benchmark.
func (o *outcome) set(defs []metricDef, name string, v float64, samples int, base string) {
	for _, d := range defs {
		if d.Name == name {
			o.values[name] = value{Name: name, Value: v, Unit: d.Unit, Samples: samples, Base: base, Moves: moves[name]}
			return
		}
	}
	panic("perfbench: metric " + name + " is not in BENCHMARK.json")
}

func (o *outcome) setE2E(name string, v float64, samples int, base string) {
	o.set(o.bench.EndToEnd, name, v, samples, base)
}

func (o *outcome) setLayer(name string, v float64, samples int, base string) {
	o.set(o.bench.PerLayer, name, v, samples, base)
}

// setPeakRSS records the process's peak RSS. Runners call it right
// after the measured phase, before their own analysis allocates.
func (o *outcome) setPeakRSS() error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.setE2E("peak_rss_mb", rss, 0, "VmHWM of the benchmark process, which hosts the whole fleet, at the end of the measured phase")
	return nil
}

// report is everything printed before the result line.
type report struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Provenance provenance     `json:"provenance"`
	Params     any            `json:"params"`
	Fleet      *fleetConfig   `json:"fleet,omitempty"`
	Metrics    []value        `json:"metrics"`
	Details    map[string]any `json:"details,omitempty"`
	Failures   []string       `json:"failures,omitempty"`
}

// run executes one workload run.
func run(opts options) (result, report, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return result{}, report{}, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return result{}, report{}, fmt.Errorf("scratch directory (run from the repository root): %w", err)
	}
	defer os.RemoveAll(dir)
	opts.dir = dir

	o := &outcome{bench: opts.bench, values: map[string]value{}, details: map[string]any{}}
	rep := report{Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace, Provenance: readProvenance()}
	// A traced run also measures the workload's own standalone layer.
	conns := clientConns()
	switch opts.workload {
	case "plan-zipf":
		in := planZipfInputs(opts.seed, conns)
		rep.Params, rep.Fleet = servingParams(opts.workload, conns, warmupPerConn), &defaultFleet
		err = runServing(o, opts, in, warmupPerConn)
		if err == nil && opts.trace {
			err = measureCache(o, in)
		}
	case "searchtimes-batch":
		in := searchtimesInputs(opts.seed, conns)
		rep.Params, rep.Fleet = servingParams(opts.workload, conns, targetLists/conns), &defaultFleet
		err = runServing(o, opts, in, targetLists/conns)
		if err == nil && opts.trace {
			err = measureEval(o, in)
		}
	case "sweep-grid":
		rep.Params = sweepParams(opts.seed)
		err = runSweepGrid(o, opts)
		if err == nil && opts.trace {
			err = measureCompile(o, sweepSpec(opts.seed))
		}
	default:
		err = fmt.Errorf("workload %q is in BENCHMARK.json but perfbench cannot run it", opts.workload)
	}
	if err != nil {
		return result{}, report{}, err
	}

	defs := opts.bench.EndToEnd
	if opts.trace {
		defs = opts.bench.PerLayer
	} else {
		ok := float64(o.attempted-o.failed) / float64(o.attempted)
		o.setE2E("ok_ratio", ok, int(o.attempted), "verified operations over attempted operations")
	}
	res := result{Correct: o.failed == 0 && len(o.failures) == 0 && o.attempted > 0,
		Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok {
			if !opts.trace {
				return result{}, report{}, errors.New("perfbench: end-to-end metric " + d.Name + " was not measured")
			}
			v = value{Name: d.Name, Unit: d.Unit, Base: "not on this workload's path", Moves: moves[d.Name]}
		}
		res.Metrics[d.Name] = metric{Value: v.Value, Unit: v.Unit}
		rep.Metrics = append(rep.Metrics, v)
	}
	rep.Details, rep.Failures = o.details, o.failures
	return res, rep, nil
}

// timeSetups sets the workload up untimed for hostWarmup and then
// setupRepeats times more, and records the median of the timed ones as
// setup_s.
func timeSetups(o *outcome, what string, setUp func() (time.Duration, error)) error {
	for start := time.Now(); time.Since(start) < hostWarmup; {
		if _, err := setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	setups := make([]float64, setupRepeats)
	for i := range setups {
		d, err := setUp()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups[i] = d.Seconds()
	}
	o.setE2E("setup_s", median(setups), len(setups), "median of "+what)
	o.details["setup_s_each"] = setups
	return nil
}

// clientConns is the closed loop's connection count: 2, and never more
// than the machine's CPUs.
func clientConns() int {
	return min(2, runtime.NumCPU())
}

func servingParams(name string, conns, warmup int) map[string]any {
	p := map[string]any{
		"loop":             "closed",
		"connections":      conns,
		"route":            "client -> router -> backend",
		"warmup_per_conn":  warmup,
		"settle":           settleTime.String() + " of untimed, verified load before timing",
		"setups_per_run":   setupRepeats,
		"setup_warmup":     hostWarmup.String() + " of untimed set-ups before the timed ones",
		"stream_len":       streamLen,
		"throughput_basis": "median of one-second windows",
		"latency_basis":    "every verified request of the measured phase",
	}
	if name == "plan-zipf" {
		p["endpoint"] = "GET /v1/plan"
		p["keys"] = fmt.Sprintf("loadgen's first %d (n,f) pairs, zipf s=%v, one stream per connection", planKeyUniverse, zipfS)
	} else {
		p["endpoint"] = "GET /v1/searchtimes"
		p["keys"] = fmt.Sprintf("the %d zipf-head keys of plan-zipf, each paired with %d of the %d seeded target lists", hotKeys, targetLists/hotKeys, targetLists)
		p["targets_per_request"] = targetsPerReq
		p["targets"] = "|x| log-uniform in [1, " + strconv.FormatFloat(maxTarget, 'g', -1, 64) + "], random sign, " + strconv.Itoa(targetDigits) + " significant digits"
	}
	return p
}

func sweepParams(seed int64) map[string]any {
	spec := sweepSpec(seed)
	return map[string]any{
		"loop":             "closed: passes back to back, fresh checkpoint directory each",
		"n":                spec.N,
		"f":                spec.F,
		"strategies":       spec.Strategies,
		"xmax":             spec.XMax,
		"grid_points":      spec.GridPoints,
		"cells":            spec.CellCount(),
		"workers":          runtime.NumCPU(),
		"checkpoint_every": "sweep default (32 cells)",
		"tracer":           "sample 0.1, buffer 256: the request tracer linesearchd hands its sweep manager",
		"warmup":           "54-cell grid over N 7..12",
		"settle":           "one untimed, verified pass before timing",
		"setups_per_run":   setupRepeats,
		"setup_warmup":     hostWarmup.String() + " of untimed set-ups before the timed ones",
		"operation":        "one grid cell",
	}
}
