package sweep

import (
	"testing"
	"time"
)

// sealSpec and sealCheckpoint are fixed values whose content hashes
// are pinned below: job IDs and checkpoint files on disk depend on
// these exact bytes, so any change to the sealing scheme shows here.
func sealSpec() Spec {
	return Spec{
		Name:       "pin",
		N:          []int{3, 4, 5},
		F:          []int{1, 2},
		Strategies: []string{StrategyAuto, "cone"},
		Betas:      []float64{2.5},
		XMin:       1,
		XMax:       50,
		GridPoints: 8,
		Eps:        1e-9,
	}
}

func sealCheckpoint() Checkpoint {
	spec := sealSpec()
	cr, an, abs := 5.233069471, 5.2330694713, 3e-10
	return Checkpoint{
		Version:  checkpointVersion,
		ID:       spec.JobID(),
		SpecHash: spec.Hash(),
		Spec:     spec,
		Cells: []Cell{{Index: 0, N: 3, F: 1, Strategy: StrategyAuto, Resolved: "proportional",
			EmpiricalCR: &cr, AnalyticCR: &an, AbsError: &abs, ArgX: -1.75, Candidates: 37}},
		UpdatedAt: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
	}
}

func TestSpecHashPinned(t *testing.T) {
	const want = "d7c0034afe523089f1e19ef398eab7817387fcdedd0dc51ea8ff77c6b9ba462d"
	if got := sealSpec().Hash(); got != want {
		t.Errorf("Spec.Hash() = %s, want %s", got, want)
	}
	if got := sealSpec().JobID(); got != "sw-"+want[:12] {
		t.Errorf("JobID() = %s, want sw-%s", got, want[:12])
	}
}

func TestCheckpointChecksumPinned(t *testing.T) {
	const want = "538a35afe52f957d2fd2fa24e630c10091577ca86d10c9f796bb203bbb8161c4"
	cp := sealCheckpoint()
	if got := cp.checksum(); got != want {
		t.Errorf("Checkpoint.checksum() = %s, want %s", got, want)
	}
	// The stamped checksum is excluded from its own input.
	cp.Checksum = "stale"
	if got := cp.checksum(); got != want {
		t.Errorf("checksum depends on the Checksum field: %s", got)
	}
}
