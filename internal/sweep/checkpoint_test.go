package sweep

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"linesearch/internal/faultpoint"
	"linesearch/internal/trace"
)

// resumeSpec is the grid shared by the resume tests: large enough to
// interrupt partway, fast enough for CI.
func resumeSpec() Spec {
	return Spec{
		Name:       "resume",
		N:          []int{2, 3, 4, 5, 6, 7},
		F:          []int{1, 2, 3},
		Strategies: []string{StrategyAuto},
		Betas:      []float64{2.5},
		XMax:       50,
		GridPoints: 16,
	}
}

// countingEval wraps the production evaluator, recording which cell
// indices were actually computed.
type countingEval struct {
	mu       sync.Mutex
	computed map[int]int
}

func (e *countingEval) eval(ctx context.Context, p CellParams) Cell {
	e.mu.Lock()
	if e.computed == nil {
		e.computed = make(map[int]int)
	}
	e.computed[p.Index]++
	e.mu.Unlock()
	return EvalCell(ctx, p)
}

func (e *countingEval) indices() map[int]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int]int, len(e.computed))
	for k, v := range e.computed {
		out[k] = v
	}
	return out
}

// TestCheckpointResumeAfterRestart is the durability contract: a job
// killed mid-run and resubmitted to a *new* manager (a simulated daemon
// restart) resumes from its checkpoint, recomputes no completed cell,
// and produces exactly the dataset an uninterrupted run produces.
func TestCheckpointResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	spec := resumeSpec()

	// Run 1: cancel after enough cells have been computed and
	// checkpointed, simulating a daemon killed mid-sweep.
	killed := make(chan struct{})
	var firstEval countingEval
	var once sync.Once
	const killAfter = 8
	m1 := NewManager(Config{Dir: dir, Workers: 2, CheckpointEvery: 1, Logger: quiet(),
		Eval: func(ctx context.Context, p CellParams) Cell {
			c := firstEval.eval(ctx, p)
			if len(firstEval.indices()) >= killAfter {
				once.Do(func() { close(killed) })
			}
			return c
		}})
	j1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	j1.Cancel()
	st1 := waitJob(t, j1)
	m1.Close()
	if st1.State != StateCancelled {
		t.Fatalf("run 1 state %s, want cancelled", st1.State)
	}
	if st1.DoneCells == 0 || st1.DoneCells >= st1.TotalCells {
		t.Fatalf("run 1 completed %d/%d cells; the test needs a partial run", st1.DoneCells, st1.TotalCells)
	}

	// Run 2: a fresh manager over the same directory resumes.
	var secondEval countingEval
	m2 := NewManager(Config{Dir: dir, Workers: 2, CheckpointEvery: 4, Logger: quiet(),
		Eval: secondEval.eval})
	defer m2.Close()
	j2, err := m2.Submit(resumeSpec())
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, j2)
	if st2.State != StateDone {
		t.Fatalf("run 2 state %s, error %q", st2.State, st2.Error)
	}
	if st2.ResumedCells != st1.DoneCells {
		t.Errorf("run 2 resumed %d cells, run 1 checkpointed %d", st2.ResumedCells, st1.DoneCells)
	}

	// No completed cell was recomputed, and nothing was computed twice.
	first, second := firstEval.indices(), secondEval.indices()
	for idx, count := range second {
		if count > 1 {
			t.Errorf("run 2 computed cell %d %d times", idx, count)
		}
		if _, ok := first[idx]; ok {
			t.Errorf("run 2 recomputed checkpointed cell %d", idx)
		}
	}
	if got := len(first) + len(second); got != st2.TotalCells {
		t.Errorf("runs computed %d distinct cells in total, want %d", got, st2.TotalCells)
	}

	// The stitched dataset equals an uninterrupted run's, exactly.
	m3 := NewManager(Config{Dir: t.TempDir(), Workers: 2, Logger: quiet()})
	defer m3.Close()
	j3, err := m3.Submit(resumeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st3 := waitJob(t, j3); st3.State != StateDone {
		t.Fatalf("reference run state %s", st3.State)
	}
	d2, err := j2.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	d3, err := j3.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(d2, d3) {
		t.Errorf("resumed dataset differs from uninterrupted run:\nresumed:  %+v\nreference: %+v", d2, d3)
	}
}

// datasetsEqual compares datasets cell by cell, treating NaN (a blank
// cell, e.g. the beta of a twogroup row) as equal to NaN — which
// reflect.DeepEqual does not.
func datasetsEqual(a, b *trace.Dataset) bool {
	if a.Name != b.Name || !reflect.DeepEqual(a.Columns, b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			x, y := a.Rows[i][j], b.Rows[i][j]
			if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
				return false
			}
		}
	}
	return true
}

// TestResumeCompletedJobSkipsAllCells: resubmitting a finished spec to
// a fresh manager replays the checkpoint and computes nothing.
func TestResumeCompletedJobSkipsAllCells(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{N: []int{3, 5}, F: []int{1, 2}, XMax: 20, GridPoints: 8}
	m1 := NewManager(Config{Dir: dir, Logger: quiet()})
	j1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j1); st.State != StateDone {
		t.Fatalf("state %s", st.State)
	}
	m1.Close()

	var ev countingEval
	m2 := NewManager(Config{Dir: dir, Logger: quiet(), Eval: ev.eval})
	defer m2.Close()
	j2, err := m2.Submit(Spec{N: []int{3, 5}, F: []int{1, 2}, XMax: 20, GridPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j2)
	if st.State != StateDone {
		t.Fatalf("state %s, error %q", st.State, st.Error)
	}
	if len(ev.indices()) != 0 {
		t.Errorf("resume of a completed job recomputed %d cells", len(ev.indices()))
	}
	if st.ResumedCells != st.TotalCells {
		t.Errorf("resumed %d of %d cells", st.ResumedCells, st.TotalCells)
	}
	for _, f := range st.Files {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("result file %s: %v", f, err)
		}
	}
}

// TestCheckpointRejectsSpecMismatch: a checkpoint written for one spec
// must not seed a different spec's job. (IDs are content-derived, so
// this requires a corrupted or hand-edited file — exactly the case the
// hash check exists for.)
func TestCheckpointRejectsSpecMismatch(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{N: []int{3}, F: []int{1}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cp := Checkpoint{ID: spec.JobID(), SpecHash: "not-the-real-hash", Spec: spec}
	if _, err := writeCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(dir, spec.JobID(), spec.Hash()); err == nil {
		t.Fatal("hash-mismatched checkpoint accepted")
	}
	m := NewManager(Config{Dir: dir, Logger: quiet()})
	defer m.Close()
	if _, err := m.Submit(spec); err == nil {
		t.Fatal("Submit accepted a mismatched checkpoint")
	}
}

// TestCheckpointRoundTrip exercises the file layer directly.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{N: []int{3}, F: []int{1}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cr := 5.25
	cp := Checkpoint{
		ID:       spec.JobID(),
		SpecHash: spec.Hash(),
		Spec:     spec,
		Cells: []Cell{
			{Index: 1, N: 3, F: 1, Strategy: "auto", Resolved: "proportional", EmpiricalCR: &cr},
			{Index: 0, N: 3, F: 1, Strategy: "auto", Err: "boom"},
		},
	}
	if _, err := writeCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	got, err := readCheckpoint(dir, spec.JobID(), spec.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got.Cells) != 2 {
		t.Fatalf("round trip lost cells: %+v", got)
	}
	if got.Cells[0].Index != 0 || got.Cells[1].Index != 1 {
		t.Errorf("cells not sorted by index: %+v", got.Cells)
	}
	if *got.Cells[1].EmpiricalCR != cr {
		t.Errorf("empirical CR round trip: %v", got.Cells[1].EmpiricalCR)
	}
	if got.Cells[0].Err != "boom" {
		t.Errorf("cell error round trip: %q", got.Cells[0].Err)
	}

	// Missing file is a fresh start, not an error.
	if cp, err := readCheckpoint(dir, "sw-absent", "x"); err != nil || cp != nil {
		t.Errorf("missing checkpoint = %v, %v", cp, err)
	}
	// Corrupt file is an error, not silent recompute.
	if err := os.WriteFile(filepath.Join(dir, "sw-bad.checkpoint.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(dir, "sw-bad", "x"); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	// removeCheckpoint tolerates absence.
	if err := removeCheckpoint(dir, spec.JobID()); err != nil {
		t.Fatal(err)
	}
	if err := removeCheckpoint(dir, spec.JobID()); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointChecksumTamperMovesAside: flipping bytes in a
// checkpoint fails the checksum on read, moves the file to .corrupt,
// and surfaces a loud error instead of silently restarting the sweep.
func TestCheckpointChecksumTamperMovesAside(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{N: []int{3}, F: []int{1}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cr := 4.5
	cp := Checkpoint{ID: spec.JobID(), SpecHash: spec.Hash(), Spec: spec,
		Cells: []Cell{{Index: 0, N: 3, F: 1, Strategy: "auto", EmpiricalCR: &cr}}}
	if _, err := writeCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	path := checkpointPath(dir, spec.JobID())
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the payload without breaking the JSON syntax.
	tampered := []byte(strings.Replace(string(blob), `"n": 3`, `"n": 4`, 1))
	if string(tampered) == string(blob) {
		t.Fatal("tamper target not found in checkpoint")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = readCheckpoint(dir, spec.JobID(), spec.Hash())
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered checkpoint not rejected: %v", err)
	}
	if _, serr := os.Stat(path + ".corrupt"); serr != nil {
		t.Errorf("corrupt file not moved aside: %v", serr)
	}
	if _, serr := os.Stat(path); serr == nil {
		t.Error("corrupt file still in place")
	}
	// A resubmit after the move-aside starts fresh rather than erroring.
	if cp2, rerr := readCheckpoint(dir, spec.JobID(), spec.Hash()); rerr != nil || cp2 != nil {
		t.Errorf("post-quarantine read = %v, %v; want fresh start", cp2, rerr)
	}
}

// TestCheckpointUndecodableMovesAside: syntactically broken files are
// quarantined too.
func TestCheckpointUndecodableMovesAside(t *testing.T) {
	dir := t.TempDir()
	path := checkpointPath(dir, "sw-torn")
	if err := os.WriteFile(path, []byte(`{"version": 2, "cells": [tor`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(dir, "sw-torn", "x"); err == nil {
		t.Fatal("torn checkpoint accepted")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("torn file not moved aside: %v", err)
	}
}

// TestManagerStartupRemovesOrphanedTempFiles: crash debris from torn
// writes is swept when a manager starts on the directory; real
// checkpoints survive.
func TestManagerStartupRemovesOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{N: []int{3}, F: []int{1}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := writeCheckpoint(dir, Checkpoint{ID: spec.JobID(), SpecHash: spec.Hash(), Spec: spec}); err != nil {
		t.Fatal(err)
	}
	orphans := []string{
		filepath.Join(dir, spec.JobID()+".tmp-123456"),
		filepath.Join(dir, "sw-dead.tmp-9"),
	}
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager(Config{Dir: dir, Logger: quiet()})
	defer m.Close()
	for _, p := range orphans {
		if _, err := os.Stat(p); err == nil {
			t.Errorf("orphan %s survived startup", p)
		}
	}
	if _, err := os.Stat(checkpointPath(dir, spec.JobID())); err != nil {
		t.Errorf("real checkpoint removed by cleanup: %v", err)
	}
	// A manager on a directory that does not exist yet starts cleanly.
	m2 := NewManager(Config{Dir: filepath.Join(dir, "nope"), Logger: quiet()})
	m2.Close()
}

// TestCheckpointWriteFaultInjection: each fault point in the write
// path surfaces as an error and leaves no torn checkpoint or temp
// debris behind.
func TestCheckpointWriteFaultInjection(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	spec := Spec{N: []int{3}, F: []int{1}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"checkpoint.write", "checkpoint.sync", "checkpoint.rename"} {
		dir := t.TempDir()
		faultpoint.Reset()
		faultpoint.Arm(fp, faultpoint.Rule{Times: 1})
		cp := Checkpoint{ID: spec.JobID(), SpecHash: spec.Hash(), Spec: spec}
		if _, err := writeCheckpoint(dir, cp); err == nil {
			t.Errorf("%s: injected fault did not fail the write", fp)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmps) != 0 {
			t.Errorf("%s: temp debris left behind: %v", fp, tmps)
		}
		// The fault is exhausted; the retried write succeeds and reads
		// back checksum-clean.
		if _, err := writeCheckpoint(dir, cp); err != nil {
			t.Errorf("%s: post-fault write failed: %v", fp, err)
		}
		if got, err := readCheckpoint(dir, spec.JobID(), spec.Hash()); err != nil || got == nil {
			t.Errorf("%s: post-fault read = %v, %v", fp, got, err)
		}
	}
}

// TestCheckpointReadFaultInjection: an injected read fault fails
// Submit loudly instead of silently recomputing.
func TestCheckpointReadFaultInjection(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm("checkpoint.read", faultpoint.Rule{Times: 1})
	m := NewManager(Config{Dir: t.TempDir(), Logger: quiet()})
	defer m.Close()
	if _, err := m.Submit(Spec{N: []int{3}, F: []int{1}, XMax: 20}); err == nil {
		t.Fatal("Submit ignored an injected checkpoint read fault")
	}
	// The fault was one-shot; the resubmit succeeds.
	j, err := m.Submit(Spec{N: []int{3}, F: []int{1}, XMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateDone {
		t.Errorf("state %s, error %q", st.State, st.Error)
	}
}

// TestCheckpointSpliceIgnoresLookalikes: the writer splices cells into
// the empty cell list of a marshalled header, so a spec whose strings
// spell that field out, compact or indented, must not be mistaken for
// it.
func TestCheckpointSpliceIgnoresLookalikes(t *testing.T) {
	spec := Spec{Name: `a","cells":[],"b": "cells": [] "cells":[]`, N: []int{3, 4}, F: []int{1}, XMax: 20}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	j := newJob(context.Background(), spec, nil)
	j.record(okCell(1))
	j.record(okCell(0))
	assertPinnedWrite(t, "job snapshot", j.checkpoint())
	assertPinnedWrite(t, "bare checkpoint", Checkpoint{ID: spec.JobID(), SpecHash: spec.Hash(), Spec: spec,
		Cells: []Cell{okCell(1), okCell(0)}})
}
