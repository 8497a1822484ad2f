package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"linesearch/internal/seal"
)

// bytesSpec is a 66-cell grid with every axis set, so the spec half of
// a checkpoint exercises the fault-model, p and speed fields too.
func bytesSpec(t *testing.T) Spec {
	t.Helper()
	s := Spec{
		Name:        "bytes <pin> & more",
		N:           []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		F:           []int{1, 2, 3},
		Strategies:  []string{StrategyAuto},
		Betas:       []float64{2.5},
		FaultModels: []string{"crash"},
		P:           []float64{0.25},
		XMax:        50,
		GridPoints:  8,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.CellCount() < 40 {
		t.Fatalf("bytesSpec has %d cells, want at least 40", s.CellCount())
	}
	return s
}

// okCell is a successful cell whose floats cover the encoder's number
// formats: plain decimals, exponents either side and a negative zero.
func okCell(i int) Cell {
	cr, an := 5.233069471+float64(i), 5.2330694713+float64(i)
	abs, tiny := 3e-10, 1e-21*float64(i+1)
	return Cell{Index: i, N: 2 + i%11, F: 1 + i%3, Strategy: StrategyAuto, Resolved: "proportional",
		Beta: &tiny, EmpiricalCR: &cr, AnalyticCR: &an, AbsError: &abs,
		ArgX: -1.75 * float64(i+1), Candidates: 37 + i, Attempts: 1 + i%2}
}

// failCell is an error cell; its message carries characters the JSON
// encoder escapes (HTML-sensitive, quotes, a control byte, non-ASCII).
func failCell(i int, quarantined bool) Cell {
	return Cell{Index: i, N: 2 + i%11, F: 1 + i%3, Strategy: "cone:2.5",
		Err:      "strategy \"cone\" needs n > f & beta < 3 \x01 — état",
		Attempts: 3, Quarantined: quarantined}
}

// axisCell carries every fault-model, p and speed axis field.
func axisCell(i int) Cell {
	c := okCell(i)
	p, ratio := 0.25, 1e21
	c.FaultModel, c.ModelID, c.DetectionRank = "byzantine@2", 1, 3
	c.P, c.PID = &p, 2
	c.Speeds, c.SpeedID = []float64{1, 0.5, math.Copysign(0, -1), 2e-7}, 1
	c.ExpectedRatio, c.ExpectedArgX, c.Diverged = &ratio, 12.5, i%2 == 0
	return c
}

func cellRange(lo, hi int, mk func(int) Cell) []Cell {
	var out []Cell
	for i := lo; i < hi; i++ {
		out = append(out, mk(i))
	}
	return out
}

// TestCheckpointFileBytesPinned pins the checkpoint file format: for
// every case, writeCheckpoint's file is exactly json.MarshalIndent of
// the stamped value plus a newline, and its checksum is seal.Hash of
// that value with the checksum blanked. Each case is written twice:
// through a job snapshot (the flush path) and as a bare Checkpoint
// with its cells out of order.
func TestCheckpointFileBytesPinned(t *testing.T) {
	spec := bytesSpec(t)
	resumed := append(cellRange(0, 20, okCell), failCell(20, true), failCell(21, false))
	cases := []struct {
		name   string
		resume []Cell // cells in the checkpoint the job resumes from
		record []Cell // cells recorded on the job, in this order
	}{
		{name: "no cells"},
		{name: "one cell", record: []Cell{okCell(7)}},
		{name: "33 cells", record: append(cellRange(17, 33, okCell), cellRange(0, 17, okCell)...)},
		{name: "resumed plus new", resume: resumed, record: append(cellRange(30, 35, okCell), okCell(20))},
		{name: "error and quarantined", record: []Cell{failCell(3, false), okCell(1), failCell(2, true)}},
		{name: "axis fields", record: append(cellRange(40, 44, axisCell), failCell(45, false))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var from *Checkpoint
			if tc.resume != nil {
				from = &Checkpoint{ID: spec.JobID(), SpecHash: spec.Hash(), Spec: spec, Cells: tc.resume}
			}
			j := newJob(context.Background(), spec, from)
			for _, c := range tc.record {
				j.record(c)
			}
			snap := j.checkpoint()
			assertPinnedWrite(t, "job snapshot", snap)

			bare := Checkpoint{ID: snap.ID, SpecHash: snap.SpecHash, Spec: snap.Spec,
				Cells: append([]Cell(nil), snap.Cells...)}
			for i, k := 0, len(bare.Cells)-1; i < k; i, k = i+1, k-1 {
				bare.Cells[i], bare.Cells[k] = bare.Cells[k], bare.Cells[i]
			}
			assertPinnedWrite(t, "bare checkpoint", bare)
		})
	}
}

func assertPinnedWrite(t *testing.T, what string, cp Checkpoint) {
	t.Helper()
	dir := t.TempDir()
	stamped, err := writeCheckpoint(dir, cp)
	if err != nil {
		t.Fatalf("%s: writeCheckpoint: %v", what, err)
	}
	got, err := os.ReadFile(checkpointPath(dir, cp.ID))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(stamped, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("%s: file bytes differ from MarshalIndent(stamped)\n got: %s\nwant: %s", what, got, want)
	}
	blank := stamped
	blank.Checksum = ""
	if sum := seal.Hash(blank); stamped.Checksum != sum {
		t.Errorf("%s: checksum %s, want seal.Hash %s", what, stamped.Checksum, sum)
	}
	for i := 1; i < len(stamped.Cells); i++ {
		if stamped.Cells[i-1].Index >= stamped.Cells[i].Index {
			t.Fatalf("%s: stamped cells not in index order at %d", what, i)
		}
	}
}
