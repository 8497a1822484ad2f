package sweep

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// Config tunes a Manager. The zero value gets sensible defaults.
type Config struct {
	// Dir holds checkpoints (<id>.checkpoint.json) and result datasets
	// (<id>.csv, <id>.json). Default "data/sweeps".
	Dir string
	// Workers bounds the cell-evaluation concurrency of one running job
	// (default GOMAXPROCS).
	Workers int
	// MaxActiveJobs bounds how many jobs execute at once; excess
	// submissions queue in the pending state (default 2).
	MaxActiveJobs int
	// MaxCells rejects grids larger than this at submit (default 100000).
	MaxCells int
	// CheckpointEvery is the flush cadence in completed cells (default
	// 32; 1 checkpoints after every cell).
	CheckpointEvery int
	// MaxAttempts bounds how many times a transiently failing cell is
	// evaluated before quarantine (default 3; 1 disables retries).
	MaxAttempts int
	// RetryBaseDelay is the backoff before the first retry (default
	// 50ms); each further retry doubles it.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff (default 2s).
	RetryMaxDelay time.Duration
	// Seed seeds the retry-jitter PRNG (default 1), keeping backoff
	// schedules reproducible in tests.
	Seed int64
	// Logger receives job lifecycle logs (default slog.Default()).
	Logger *slog.Logger
	// Tracer samples per-cell traces into the shared debug ring buffer.
	// Nil disables cell tracing; latency histograms are kept regardless.
	Tracer *telemetry.Tracer
	// Journal, when set, records cell quarantines as structured events
	// for GET /debug/events. Nil-safe: a nil journal records nothing.
	Journal *journal.Journal
	// OnCheckpoint, when set, fires after every durable checkpoint
	// write (cadence flushes and terminal states) with the exact
	// stamped content now on disk. The fleet wiring points it at the
	// cluster replicator, which streams the checkpoint to the other
	// f ring owners. Calls for one job never overlap, come in write
	// order and all return before the job's Done channel closes.
	// Cadence flushes run off the collector, so workers keep
	// evaluating while the hook runs; but the next flush waits for it,
	// so implementations must still bound their own latency (the
	// replicator's push has a timeout and leaves a failed push to
	// anti-entropy).
	OnCheckpoint func(Checkpoint)
	// ReplicaDir, when set, is consulted on Submit: a job whose
	// previous home crashed resumes from the copy replicated to this
	// backend when it is newer than the home copy (the rule of
	// ReplicaStore.LoadLocal). Replica-read failures degrade to the
	// home copy or a cold start with a warning — recovery is best
	// effort, correctness never depends on it.
	ReplicaDir string
	// Eval overrides the cell evaluator (tests only).
	Eval EvalFunc
}

// ManagerStats are the job-engine counters exported on /metrics.
type ManagerStats struct {
	Submitted     int64 `json:"submitted"`
	Resumed       int64 `json:"resumed"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Cancelled     int64 `json:"cancelled"`
	CellsComputed int64 `json:"cells_computed"`
	CellsResumed  int64 `json:"cells_resumed"`
	CellErrors    int64 `json:"cell_errors"`
	// CellRetries counts transient-failure retries; CellsQuarantined
	// counts cells that exhausted their retry budget (each of which
	// fails its job loudly). CheckpointFailures counts failed
	// checkpoint writes, mid-run or final.
	CellRetries        int64 `json:"cell_retries"`
	CellsQuarantined   int64 `json:"cells_quarantined"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	// ReplicasRecovered counts submits that resumed from a replicated
	// checkpoint because the home checkpoint was missing — each one is
	// a job that survived the death of its previous home backend.
	ReplicasRecovered int64 `json:"replicas_recovered"`
	// RunningJobs and PendingJobs are point-in-time gauges.
	RunningJobs int `json:"running_jobs"`
	PendingJobs int `json:"pending_jobs"`
	// CellLatency is the wall-clock distribution of complete cell
	// evaluations (all attempts plus backoff included).
	CellLatency telemetry.HistogramSnapshot `json:"cell_latency_seconds"`
}

// Manager owns sweep jobs: submission, slot-bounded execution,
// checkpoint/resume, cancellation, and result export. Safe for
// concurrent use.
type Manager struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	slots  chan struct{}

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for List
	closed bool
	wg     sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand

	submitted, resumedJobs, completed, failed, cancelled atomic.Int64
	cellsComputed, cellsResumed, cellErrors              atomic.Int64
	cellRetries, cellsQuarantined, checkpointFailures    atomic.Int64
	replicasRecovered                                    atomic.Int64

	// cellLatency is always on (Observe is atomic and allocation-free);
	// the bounds stretch past request scale because one cell can spend
	// seconds in retry backoff.
	cellLatency *telemetry.Histogram
}

// cellLatencyBuckets extends the request-scale bounds with a long tail
// for retried and quarantined cells.
var cellLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// NewManager returns a Manager with defaults applied. Startup sweeps
// the checkpoint directory for orphaned "*.tmp-*" files left by
// crashed writes (a missing directory is fine); beyond that, nothing
// touches the disk until the first Submit.
func NewManager(cfg Config) *Manager {
	if cfg.Dir == "" {
		cfg.Dir = filepath.Join("data", "sweeps")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxActiveJobs <= 0 {
		cfg.MaxActiveJobs = 2
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 100000
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 32
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 50 * time.Millisecond
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Eval == nil {
		cfg.Eval = EvalCell
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:         cfg,
		ctx:         ctx,
		cancel:      cancel,
		slots:       make(chan struct{}, cfg.MaxActiveJobs),
		jobs:        make(map[string]*Job),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		cellLatency: telemetry.NewHistogram(cellLatencyBuckets...),
	}
	if n, err := cleanupOrphans(cfg.Dir); err != nil {
		cfg.Logger.Warn("sweep orphan cleanup", "dir", cfg.Dir, "err", err)
	} else if n > 0 {
		cfg.Logger.Info("sweep removed orphaned checkpoint temp files", "dir", cfg.Dir, "count", n)
	}
	return m
}

// Dir returns the manager's checkpoint/result directory.
func (m *Manager) Dir() string { return m.cfg.Dir }

// Submit validates a spec and starts (or resumes) its job. Submission
// is idempotent: the job ID derives from the spec, so resubmitting a
// spec already known to this manager returns the existing job, and
// resubmitting after a restart resumes from the spec's checkpoint.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cells := spec.CellCount(); cells > m.cfg.MaxCells {
		return nil, fmt.Errorf("sweep: grid of %d cells exceeds the limit %d", cells, m.cfg.MaxCells)
	}
	id := spec.JobID()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("sweep: manager is shut down")
	}
	if j, ok := m.jobs[id]; ok {
		m.mu.Unlock()
		return j, nil
	}
	m.mu.Unlock()

	// Read the checkpoint outside the lock; this can hit the disk.
	cp, err := readCheckpoint(m.cfg.Dir, id, spec.Hash())
	if err != nil {
		return nil, err
	}
	if m.cfg.ReplicaDir != "" {
		// This backend may be the failover home for a job whose
		// previous owner died. A replicated checkpoint (the f+1 rule's
		// payoff) resumes the job with every cell the old home had
		// flushed, when homeWins picks it over the home copy; anything
		// wrong with the replica degrades to the home copy or a cold
		// start.
		rcp, rerr := readCheckpoint(m.cfg.ReplicaDir, id, spec.Hash())
		switch {
		case rerr != nil:
			m.cfg.Logger.Warn("sweep replica recovery failed; ignoring the replica",
				"job", id, "err", rerr)
		case rcp != nil && (cp == nil || !homeWins(cp.info(), rcp.info())):
			cp = rcp
			m.replicasRecovered.Add(1)
			m.cfg.Logger.Info("sweep recovered from replicated checkpoint",
				"job", id, "cells", len(rcp.Cells))
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("sweep: manager is shut down")
	}
	if j, ok := m.jobs[id]; ok {
		// A racing submit of the same spec won; reuse its job.
		return j, nil
	}
	j := newJob(m.ctx, spec, cp)
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.submitted.Add(1)
	if j.resumed > 0 {
		m.resumedJobs.Add(1)
		m.cellsResumed.Add(int64(j.resumed))
	}
	m.wg.Add(1)
	go m.runJob(j)
	m.cfg.Logger.Info("sweep submitted", "job", id, "name", spec.Name,
		"cells", len(j.cells), "resumed", j.resumed)
	return j, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests cancellation of a job.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.Cancel()
	return true
}

// Close cancels every job, waits for them to checkpoint and exit, and
// rejects further submissions.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}

// Stats snapshots the counters and gauges.
func (m *Manager) Stats() ManagerStats {
	st := ManagerStats{
		Submitted:     m.submitted.Load(),
		Resumed:       m.resumedJobs.Load(),
		Completed:     m.completed.Load(),
		Failed:        m.failed.Load(),
		Cancelled:     m.cancelled.Load(),
		CellsComputed: m.cellsComputed.Load(),
		CellsResumed:  m.cellsResumed.Load(),
		CellErrors:    m.cellErrors.Load(),

		CellRetries:        m.cellRetries.Load(),
		CellsQuarantined:   m.cellsQuarantined.Load(),
		CheckpointFailures: m.checkpointFailures.Load(),
		ReplicasRecovered:  m.replicasRecovered.Load(),
		CellLatency:        m.cellLatency.Snapshot(),
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		switch j.state {
		case StateRunning:
			st.RunningJobs++
		case StatePending:
			st.PendingJobs++
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	return st
}

// runJob drives one job to a terminal state: wait for a slot, fan the
// pending cells over the worker pool, checkpoint on a cadence, and
// export datasets on completion.
func (m *Manager) runJob(j *Job) {
	defer m.wg.Done()

	select {
	case m.slots <- struct{}{}:
		defer func() { <-m.slots }()
	case <-j.ctx.Done():
		m.finalize(j, true)
		return
	}
	j.setRunning()

	pending := j.pendingCells()
	feed := make(chan CellParams)
	out := make(chan Cell)
	workers := m.cfg.Workers
	if workers > len(pending) {
		workers = len(pending)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range feed {
				out <- m.evalResilient(j.ctx, p)
			}
		}()
	}
	go func() {
		defer close(feed)
		for _, p := range pending {
			select {
			case feed <- p:
			case <-j.ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()

	// Cadence flushes run on their own goroutine, at most one at a
	// time: the collector waits for the previous flush before handing
	// off the next snapshot, so flush count, content, write order and
	// OnCheckpoint order are those of an inline flush, while workers
	// keep evaluating through the write.
	var flushing sync.WaitGroup
	sinceFlush := 0
	for cell := range out {
		if cell.cancelled {
			// A shutdown artifact, not a result: leave the cell
			// unrecorded so resume recomputes it.
			continue
		}
		if !cell.OK() {
			m.cellErrors.Add(1)
		}
		m.cellsComputed.Add(1)
		j.record(cell)
		sinceFlush++
		if sinceFlush >= m.cfg.CheckpointEvery {
			sinceFlush = 0
			cp := j.checkpoint()
			flushing.Wait()
			flushing.Add(1)
			go func() {
				defer flushing.Done()
				m.flush(j, cp)
			}()
		}
	}
	flushing.Wait()
	m.finalize(j, j.ctx.Err() != nil)
}

// flush writes one cadence checkpoint and hands the stamped content to
// OnCheckpoint. A failed write is counted and logged; the job goes on,
// and the next flush or the final write retries.
func (m *Manager) flush(j *Job, cp Checkpoint) {
	stamped, err := writeCheckpoint(m.cfg.Dir, cp)
	if err != nil {
		m.checkpointFailures.Add(1)
		m.cfg.Logger.Error("sweep checkpoint failed", "job", j.id, "err", err)
		return
	}
	if m.cfg.OnCheckpoint != nil {
		m.cfg.OnCheckpoint(stamped)
	}
}

// finalize writes the last checkpoint and moves the job to its terminal
// state, exporting datasets when every cell completed cleanly. Callers
// have joined any cadence flush, so the final write comes last. Jobs
// with quarantined cells fail loudly instead of passing a silently
// degraded dataset off as done.
func (m *Manager) finalize(j *Job, interrupted bool) {
	stamped, err := writeCheckpoint(m.cfg.Dir, j.checkpoint())
	if err != nil {
		m.checkpointFailures.Add(1)
		m.cfg.Logger.Error("sweep final checkpoint failed", "job", j.id, "err", err)
		m.failed.Add(1)
		j.finish(StateFailed, err, nil)
		return
	}
	if m.cfg.OnCheckpoint != nil {
		m.cfg.OnCheckpoint(stamped)
	}
	if interrupted {
		m.cancelled.Add(1)
		st := j.Status()
		m.cfg.Logger.Info("sweep cancelled", "job", j.id,
			"done", st.DoneCells, "total", st.TotalCells)
		j.finish(StateCancelled, nil, nil)
		return
	}
	if q := j.quarantined(); q > 0 {
		err := fmt.Errorf("sweep: %d cells quarantined after %d attempts each; checkpoint retained, resume retries them",
			q, m.cfg.MaxAttempts)
		m.cfg.Logger.Error("sweep failed", "job", j.id, "quarantined", q)
		m.failed.Add(1)
		j.finish(StateFailed, err, nil)
		return
	}
	files, err := m.export(j)
	if err != nil {
		m.failed.Add(1)
		j.finish(StateFailed, err, nil)
		return
	}
	m.completed.Add(1)
	st := j.Status()
	m.cfg.Logger.Info("sweep done", "job", j.id, "cells", st.TotalCells,
		"cell_errors", st.CellErrors, "files", files)
	j.finish(StateDone, nil, files)
}

// export writes the job's dataset as CSV and JSON under the manager
// directory and returns the paths.
func (m *Manager) export(j *Job) ([]string, error) {
	d, err := j.Dataset()
	if err != nil {
		return nil, err
	}
	var files []string
	for _, enc := range []struct {
		ext   string
		write func(*os.File) error
	}{
		{".csv", func(f *os.File) error { return d.WriteCSV(f) }},
		{".json", func(f *os.File) error { return d.WriteJSON(f) }},
	} {
		path := filepath.Join(m.cfg.Dir, j.id+enc.ext)
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("sweep: create %s: %w", path, err)
		}
		werr := enc.write(f)
		cerr := f.Close()
		if werr != nil {
			return nil, fmt.Errorf("sweep: write %s: %w", path, werr)
		}
		if cerr != nil {
			return nil, fmt.Errorf("sweep: close %s: %w", path, cerr)
		}
		files = append(files, path)
	}
	sort.Strings(files)
	return files, nil
}
