package sweep

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// gridGoldenSpec is the perfbench sweep-grid measurement in canonical
// order: N 7..60 x F 1..3 x {auto, doubling, byzantine}, xmax 1e4,
// 4096 grid points (486 cells).
func gridGoldenSpec() Spec {
	s := Spec{
		F:          []int{1, 2, 3},
		Strategies: []string{StrategyAuto, "doubling", "byzantine"},
		XMax:       1e4,
		GridPoints: 4096,
	}
	for n := 7; n <= 60; n++ {
		s.N = append(s.N, n)
	}
	return s
}

// TestSweepGridGolden pins every sweep-grid cell's measurement to the
// bit: the empirical CR and its witness as IEEE-754 hex, and the
// candidate count. Kernel optimisations must leave this file untouched;
// regenerate with -update only for an intended change of the
// measurement, and review the diff.
func TestSweepGridGolden(t *testing.T) {
	spec := gridGoldenSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, p := range spec.Cells() {
		c := EvalCell(context.Background(), p)
		if !c.OK() {
			t.Fatalf("cell %d (n=%d f=%d %s): %s", p.Index, p.N, p.F, p.Strategy, c.Err)
		}
		cr := "nil"
		if c.EmpiricalCR != nil {
			cr = fmt.Sprintf("%016x", math.Float64bits(*c.EmpiricalCR))
		}
		fmt.Fprintf(&buf, "n=%d f=%d strategy=%s resolved=%s cr=%s argx=%016x candidates=%d\n",
			c.N, c.F, c.Strategy, c.Resolved, cr, math.Float64bits(c.ArgX), c.Candidates)
	}
	path := filepath.Join("testdata", "sweep_grid.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range got {
			if i >= len(wantLines) || !bytes.Equal(got[i], wantLines[i]) {
				w := []byte("<missing>")
				if i < len(wantLines) {
					w = wantLines[i]
				}
				t.Fatalf("sweep grid differs from %s at line %d:\n got  %s\n want %s", path, i+1, got[i], w)
			}
		}
		t.Fatalf("sweep grid differs from %s: %d lines, want %d", path, len(got), len(wantLines))
	}
}

// TestEvalCellGridAllocBound bounds the heap EvalCell allocates per
// cell, averaged over the sweep-grid grid: grouped robots and the
// streamed CR scan keep a cell to a few KB (a materialised 8192-target
// candidate list alone is 64 KB).
func TestEvalCellGridAllocBound(t *testing.T) {
	const maxBytesPerCell = 16 << 10
	spec := gridGoldenSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range cells {
		if c := EvalCell(context.Background(), p); !c.OK() {
			t.Fatalf("cell %d: %s", p.Index, c.Err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(cells)); per > maxBytesPerCell {
		t.Errorf("EvalCell allocates %d bytes per grid cell, want <= %d", per, maxBytesPerCell)
	}
}
