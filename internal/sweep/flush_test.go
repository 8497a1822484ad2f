package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flushSpec is a 20-cell grid for the flush mechanism tests, which
// substitute a trivial evaluator: they test the pipeline, not cells.
func flushSpec() Spec {
	return Spec{N: []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, F: []int{1, 2}, XMax: 8}
}

func trivialCell(p CellParams) Cell {
	return Cell{Index: p.Index, N: p.N, F: p.F, Strategy: p.Strategy, StrategyID: p.StrategyID}
}

// TestCheckpointFlushOverlapsEvaluation proves workers keep evaluating
// while a cadence flush is in flight: the first OnCheckpoint call (4
// cells) holds its flush until 8 more cells have been evaluated. That
// is the most a held flush allows with 4 workers: the collector records
// up to the next cadence point, 4 cells on, then waits for the held
// flush, and each worker finishes one more cell. A flush on the
// collector's own path lets at most 4 more through and times out.
func TestCheckpointFlushOverlapsEvaluation(t *testing.T) {
	const every, more, workers = 4, 8, 4
	var evaluated atomic.Int64
	reached := make(chan struct{})
	var calls atomic.Int64
	m := NewManager(Config{
		Dir: t.TempDir(), Workers: workers, CheckpointEvery: every, Logger: quiet(),
		Eval: func(_ context.Context, p CellParams) Cell {
			if evaluated.Add(1) == every+more {
				close(reached)
			}
			return trivialCell(p)
		},
		OnCheckpoint: func(cp Checkpoint) {
			if calls.Add(1) != 1 {
				return
			}
			if len(cp.Cells) != every {
				t.Errorf("first checkpoint holds %d cells, want %d", len(cp.Cells), every)
			}
			select {
			case <-reached:
			case <-time.After(10 * time.Second):
				t.Errorf("flush of %d cells stalled the workers: %d evaluated, want %d",
					len(cp.Cells), evaluated.Load(), every+more)
			}
		},
	})
	defer m.Close()
	j, err := m.Submit(flushSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateDone || st.DoneCells != st.TotalCells {
		t.Fatalf("job finished %s with %d/%d cells", st.State, st.DoneCells, st.TotalCells)
	}
}

// TestCheckpointFlushOrdering pins what moving flushes off the
// collector keeps: OnCheckpoint calls never overlap, each holds a
// multiple of CheckpointEvery cells in non-decreasing order, the last
// holds every cell, the count is that of an inline flush, and every
// call returns before the job's Done channel closes.
func TestCheckpointFlushOrdering(t *testing.T) {
	const every = 3
	spec := flushSpec()
	var (
		inflight atomic.Int32
		mu       sync.Mutex
		counts   []int
		job      *Job
	)
	submitted := make(chan struct{})
	m := NewManager(Config{
		Dir: t.TempDir(), Workers: 2, CheckpointEvery: every, Logger: quiet(),
		Eval: func(_ context.Context, p CellParams) Cell { return trivialCell(p) },
		OnCheckpoint: func(cp Checkpoint) {
			if inflight.Add(1) != 1 {
				t.Error("OnCheckpoint calls overlap")
			}
			defer inflight.Add(-1)
			<-submitted
			select {
			case <-job.Done():
				t.Error("OnCheckpoint ran after the job's Done channel closed")
			default:
			}
			if err := cp.Verify(); err != nil {
				t.Errorf("hook got an unverifiable checkpoint: %v", err)
			}
			runtime.Gosched() // give an overlapping call a chance to show
			mu.Lock()
			counts = append(counts, len(cp.Cells))
			mu.Unlock()
		},
	})
	defer m.Close()
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	job = j
	close(submitted)
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("job finished %s", st.State)
	}

	mu.Lock()
	defer mu.Unlock()
	total := st.TotalCells
	if want := total/every + 1; len(counts) != want {
		t.Fatalf("%d OnCheckpoint calls %v, want %d", len(counts), counts, want)
	}
	for i, n := range counts[:len(counts)-1] {
		if n != (i+1)*every {
			t.Errorf("call %d held %d cells, want %d: %v", i, n, (i+1)*every, counts)
		}
	}
	if last := counts[len(counts)-1]; last != total {
		t.Errorf("last call held %d cells, want all %d", last, total)
	}
}
