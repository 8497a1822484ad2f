package service

import (
	"context"
	"testing"
)

// TestPlanKeyHashPinned pins the sharding hash to literal values: the
// router's ring places every plan by these bytes, so a fleet of mixed
// builds only agrees on placement while they stay fixed.
func TestPlanKeyHashPinned(t *testing.T) {
	for _, c := range []struct {
		key  PlanKey
		want string
	}{
		{PlanKey{N: 3, F: 1, MinDist: 1}, "b405479b34b85ca70544d66a3bcf9d854b09940867e692c92150603c30eb51fa"},
		{PlanKey{N: 5, F: 2, MinDist: 1, Strategy: "doubling"}, "dcf52e8acc44c56e58f514d111e1857e1fa2d997216e9d425433ef65554969c1"},
		{PlanKey{N: 7, F: 1, MinDist: 0.5, Model: "byzantine", Votes: 3}, "b05ac080d5b0961eb5aca19087301bd2de02a8a07c6d98d121c71723949312bf"},
	} {
		if got := c.key.Hash(); got != c.want {
			t.Errorf("%v: Hash() = %s, want %s", c.key, got, c.want)
		}
	}
}

// TestPlanKeyHashAllocs pins PlanKey.Hash's allocation count: it runs
// once per routed request, so sealing must not cost the serving path
// an extra allocation. 4 is the count measured for the inline
// marshal, SHA-256 and hex encoding the pins above were recorded with.
func TestPlanKeyHashAllocs(t *testing.T) {
	const budget = 4
	k := PlanKey{N: 5, F: 2, MinDist: 1, Strategy: "doubling"}
	if allocs := testing.AllocsPerRun(100, func() { _ = k.Hash() }); allocs > budget {
		t.Errorf("PlanKey.Hash allocates %v times per call, want <= %d", allocs, budget)
	}
}

// TestCacheSnapshotChecksumPinned pins the snapshot seal to a literal
// value and checks that every way of stamping a snapshot — Seal,
// NewCacheSnapshot and PlanCache.Export — seals the same content the
// same way.
func TestCacheSnapshotChecksumPinned(t *testing.T) {
	const want = "85dd29c7a65d441ff33bbd289679e500b9ca22448c3bd8761da0c8d9b7a41051"
	entries := []CacheSnapshotEntry{
		{Key: PlanKey{N: 3, F: 1, MinDist: 1}, CR: 5.233069471},
		{Key: PlanKey{N: 5, F: 2, MinDist: 1, Strategy: "doubling"}, CR: 9},
	}
	if got := NewCacheSnapshot(entries).Checksum; got != want {
		t.Errorf("NewCacheSnapshot checksum = %s, want %s", got, want)
	}
	snap := CacheSnapshot{Version: cacheSnapshotVersion, Entries: entries, Checksum: "stale"}
	snap.Seal()
	if snap.Checksum != want {
		t.Errorf("Seal checksum = %s, want %s", snap.Checksum, want)
	}

	svc := newTestService(t, Config{})
	for _, e := range entries {
		if _, err := svc.Cache().Warm(context.Background(), e.Key); err != nil {
			t.Fatal(err)
		}
	}
	exp := svc.Cache().Export(0)
	if len(exp.Entries) != len(entries) || exp.Checksum != NewCacheSnapshot(exp.Entries).Checksum {
		t.Errorf("Export = %+v, not sealed like NewCacheSnapshot", exp)
	}
}
