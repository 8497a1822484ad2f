package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"linesearch/internal/sweep"
	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// maxAbsError is the tolerance between a cell's measured CR and its
// closed form.
const maxAbsError = 1e-9

// sweepRunner runs sweep-grid passes: each pass is a fresh
// sweep.Manager with an empty checkpoint directory (a reused one would
// resume the content-hashed job and compute nothing).
type sweepRunner struct {
	workers int
	tracer  *telemetry.Tracer
	journal *journal.Journal
}

// ckptEvent is one OnCheckpoint call: when it fired, how many cells
// the checkpoint held and its size on disk.
type ckptEvent struct {
	at    int64
	cells int
	bytes int64
}

// pass is one verified grid job.
type pass struct {
	tally
	elapsed time.Duration
	cells   []interval // one per EvalCell call, ns from pass start
	ckpts   []ckptEvent
}

// run submits spec to a new manager over dir, waits for the job and
// checks every cell. With traced set, checkpoints are recorded too.
func (s *sweepRunner) run(spec sweep.Spec, dir string, traced bool) (pass, error) {
	var p pass
	var mu sync.Mutex
	start := time.Now()
	cfg := sweep.Config{
		Dir:     dir,
		Workers: s.workers,
		Logger:  discardLogger(),
		Tracer:  s.tracer,
		Journal: s.journal,
		// The unchanged production evaluator, timed from outside.
		Eval: func(ctx context.Context, cp sweep.CellParams) sweep.Cell {
			t0 := int64(time.Since(start))
			c := sweep.EvalCell(ctx, cp)
			iv := interval{t0, int64(time.Since(start))}
			mu.Lock()
			p.cells = append(p.cells, iv)
			mu.Unlock()
			return c
		},
	}
	if traced {
		// Called on the job goroutine before the job's Done channel
		// closes, so reading p.ckpts after Done is ordered.
		cfg.OnCheckpoint = func(cp sweep.Checkpoint) {
			ev := ckptEvent{at: int64(time.Since(start)), cells: len(cp.Cells)}
			if fi, err := os.Stat(filepath.Join(dir, cp.ID+".checkpoint.json")); err == nil {
				ev.bytes = fi.Size()
			}
			p.ckpts = append(p.ckpts, ev)
		}
	}
	m := sweep.NewManager(cfg)
	defer m.Close()
	job, err := m.Submit(spec)
	if err != nil {
		return p, fmt.Errorf("submit sweep: %w", err)
	}
	<-job.Done()
	p.elapsed = time.Since(start)

	st := job.Status()
	total := spec.CellCount()
	p.attempted = int64(total)
	if st.State != sweep.StateDone || st.ResumedCells != 0 || st.DoneCells != total {
		p.fail("job %s: state %s, %d/%d cells, %d resumed: %s", st.ID, st.State, st.DoneCells, total, st.ResumedCells, st.Error)
	}
	cells := job.CompletedCells()
	if len(cells) != total {
		p.fail("job %s returned %d cells, want %d", st.ID, len(cells), total)
	}
	for _, c := range cells {
		switch {
		case !c.OK():
			p.fail("cell %d (n=%d f=%d %s): %s", c.Index, c.N, c.F, c.Strategy, c.Err)
		case c.EmpiricalCR == nil:
			p.fail("cell %d (n=%d f=%d %s): no CR", c.Index, c.N, c.F, c.Strategy)
		case c.AnalyticCR != nil && (c.AbsError == nil || *c.AbsError > maxAbsError):
			p.fail("cell %d (n=%d f=%d %s): CR %v off its closed form %v", c.Index, c.N, c.F, c.Strategy, *c.EmpiricalCR, *c.AnalyticCR)
		}
	}
	mu.Lock()
	evals := len(p.cells)
	mu.Unlock()
	if evals != total {
		p.fail("job %s evaluated %d cells, want %d (retries or resumes)", st.ID, evals, total)
	}
	return p, nil
}

// runSweepGrid runs sweep-grid.
func runSweepGrid(o *outcome, opts options) error {
	spec := sweepSpec(opts.seed)
	s := &sweepRunner{
		workers: runtime.NumCPU(),
		// linesearchd hands its request tracer (sample 0.1) and journal
		// to the sweep manager; mirror that.
		tracer:  telemetry.New(telemetry.Config{SampleRate: defaultFleet.BackendTraceSample, Capacity: defaultFleet.TraceBuffer}),
		journal: journal.New(0),
	}
	n := 0
	nextDir := func() string {
		n++
		return filepath.Join(opts.dir, fmt.Sprintf("pass-%d", n))
	}
	runPass := func(spec sweep.Spec, traced bool) (pass, error) {
		dir := nextDir()
		p, err := s.run(spec, dir, traced)
		o.add(p.tally)
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
		return p, err
	}

	err := timeSetups(o, "manager start + a verified 54-cell warm-up job", func() (time.Duration, error) {
		p, err := runPass(sweepWarmSpec(), false)
		return p.elapsed, err
	})
	if err != nil {
		return err
	}

	measure := func(traced bool) ([]pass, error) {
		var passes []pass
		start := time.Now()
		for time.Since(start) < time.Duration(opts.seconds)*time.Second {
			p, err := runPass(spec, traced)
			if err != nil {
				return passes, err
			}
			passes = append(passes, p)
		}
		return passes, nil
	}
	// One untimed, verified pass, so the measured phase starts on a
	// settled machine and runtime.
	if _, err := runPass(spec, false); err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readHostCPU()
	plain, err := measure(false)
	o.details["host_steal_share"] = cpu0.stealShare(readHostCPU())
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	if err := o.setPeakRSS(); err != nil {
		return err
	}
	untraced := cellsPerSecond(plain)
	o.details["pass_rates"] = passRates(plain)
	if !opts.trace {
		o.setE2E("throughput_rps", untraced, len(plain), "median over passes of verified cells per second")
		lat := cellLatencies(plain)
		o.setE2E("latency_p50_ms", percentile(lat, 0.50), len(lat), "EvalCell wall time per cell")
		o.setE2E("latency_p99_ms", percentile(lat, 0.99), len(lat), "EvalCell wall time per cell")
		return nil
	}
	cellsRun := int64(len(plain) * spec.CellCount())
	o.setLayer("process.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(cellsRun), int(cellsRun), "whole process per cell, untraced phase")
	o.setLayer("process.gc_cycles", float64(ms1.NumGC-ms0.NumGC), int(cellsRun), "untraced phase")

	traced, err := measure(true)
	if err != nil {
		return err
	}
	o.setLayer("tracing.overhead_ratio", cellsPerSecond(traced)/untraced, 2, "traced over untraced throughput_rps")
	lat := cellLatencies(traced)
	o.setLayer("sweep.cell_ms_p50", percentile(lat, 0.5), len(lat), "EvalCell span")
	o.setLayer("sweep.cell_ms_p99", percentile(lat, 0.99), len(lat), "EvalCell span")

	var wall, busy, ckptTime, idle int64
	var ckpts, ckptBytes int64
	for _, p := range traced {
		whole := interval{0, int64(p.elapsed)}
		ends := make([]int64, len(p.cells))
		for i, c := range p.cells {
			busy += c.dur()
			ends[i] = c.end
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		children := append([]interval(nil), p.cells...)
		for _, ev := range p.ckpts {
			// A flush starts when the cell that triggered it is handed
			// to the job goroutine, right after that cell's EvalCell
			// returned, and ends when OnCheckpoint fires.
			begin := ev.at
			if ev.cells > 0 && ev.cells <= len(ends) && ends[ev.cells-1] < begin {
				begin = ends[ev.cells-1]
			}
			ck := interval{begin, ev.at}
			ckptTime += ck.dur()
			children = append(children, ck)
			ckpts++
			ckptBytes += ev.bytes
		}
		wall += int64(p.elapsed)
		idle += selfTime(whole, children)
	}
	passes := len(traced)
	base := fmt.Sprintf("per pass of %d cells, mean over %d traced passes", spec.CellCount(), passes)
	o.setLayer("sweep.worker_busy_ratio", float64(busy)/float64(int64(s.workers)*wall), passes, fmt.Sprintf("EvalCell time over %d workers x pass wall time", s.workers))
	o.setLayer("sweep.checkpoints", float64(ckpts)/float64(passes), passes, base)
	o.setLayer("sweep.checkpoint_bytes", float64(ckptBytes)/float64(passes), passes, base)
	o.setLayer("sweep.checkpoint_share", float64(ckptTime)/float64(wall), passes, "checkpoint flush time over pass wall time")
	o.details["trace"] = map[string]any{
		"traced_passes":        passes,
		"pass_ms_mean":         float64(wall) / 1e6 / float64(passes),
		"pass_self_share":      float64(idle) / float64(wall),
		"pass_self_definition": "pass wall time covered by neither a cell nor a checkpoint flush",
	}
	return nil
}

// cellsPerSecond is the median over passes of verified cells per
// second.
func cellsPerSecond(passes []pass) float64 { return median(passRates(passes)) }

func passRates(passes []pass) []float64 {
	rates := make([]float64, 0, len(passes))
	for _, p := range passes {
		rates = append(rates, float64(p.attempted-p.failed)/p.elapsed.Seconds())
	}
	return rates
}

func cellLatencies(passes []pass) []float64 {
	var out []float64
	for _, p := range passes {
		for _, c := range p.cells {
			out = append(out, float64(c.dur())/1e6)
		}
	}
	return out
}
