package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestSameSeedSameRequests(t *testing.T) {
	for _, build := range []func(int64, int) servingInputs{planZipfInputs, searchtimesInputs} {
		a, b := build(7, 2), build(7, 2)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("the same seed gave different request sequences")
		}
	}
	if !reflect.DeepEqual(sweepSpec(7), sweepSpec(7)) {
		t.Fatal("the same seed gave different sweep grids")
	}
}

func TestDifferentSeedDiffers(t *testing.T) {
	if a, b := planZipfInputs(7, 2), planZipfInputs(8, 2); reflect.DeepEqual(a.seq, b.seq) {
		t.Error("plan-zipf: seeds 7 and 8 gave the same key streams")
	}
	if a, b := searchtimesInputs(7, 2), searchtimesInputs(8, 2); reflect.DeepEqual(a.paths, b.paths) {
		t.Error("searchtimes-batch: seeds 7 and 8 gave the same requests")
	}
	if a, b := sweepSpec(7), sweepSpec(8); reflect.DeepEqual(a.N, b.N) {
		t.Error("sweep-grid: seeds 7 and 8 gave the same N order")
	}
	// Connections of one run draw different streams.
	if in := planZipfInputs(7, 2); reflect.DeepEqual(in.seq[0], in.seq[1]) {
		t.Error("plan-zipf: both connections got the same stream")
	}
}

// TestKeySetMatchesLoadgen pins the key universe to cmd/loadgen's
// enumeration: n = 2, 3, ..., f = 1..n-1 within each n, first 500.
func TestKeySetMatchesLoadgen(t *testing.T) {
	keys := loadgenKeys(planKeyUniverse)
	if len(keys) != 500 {
		t.Fatalf("%d keys, want 500", len(keys))
	}
	// Pairs with n <= 32 number 32*31/2 = 496; the last four are n = 33.
	for i, want := range map[int]pair{0: {2, 1}, 1: {3, 1}, 2: {3, 2}, 3: {4, 1}, 495: {32, 31}, 496: {33, 1}, 499: {33, 4}} {
		if keys[i] != want {
			t.Errorf("key %d = %v, want %v", i, keys[i], want)
		}
	}
	seen := map[pair]bool{}
	for _, k := range keys {
		if k.F < 1 || k.F >= k.N || seen[k] {
			t.Fatalf("key %v invalid or repeated", k)
		}
		seen[k] = true
	}
	in := planZipfInputs(1, 2)
	if in.paths[1] != "/v1/plan?n=3&f=1" {
		t.Errorf("path of (3,1) = %q", in.paths[1])
	}
	for _, seq := range in.seq {
		for _, r := range seq {
			if r < 0 || int(r) >= planKeyUniverse {
				t.Fatalf("rank %d outside the universe", r)
			}
		}
	}
}

func TestSearchtimesInputs(t *testing.T) {
	in := searchtimesInputs(3, 2)
	if len(in.paths) != targetLists {
		t.Fatalf("%d requests, want %d", len(in.paths), targetLists)
	}
	hot := map[pair]bool{}
	for i, p := range in.paths {
		hot[in.keys[i]] = true
		q := p[strings.Index(p, "xs=")+3:]
		if n := strings.Count(q, ",") + 1; n != targetsPerReq || len(in.targets[i]) != targetsPerReq {
			t.Fatalf("request %d has %d targets", i, n)
		}
		for _, x := range in.targets[i] {
			if ax := max(x, -x); ax < 1 || ax > maxTarget*1.0001 {
				t.Fatalf("target %v outside [1, %v]", x, maxTarget)
			}
		}
	}
	if len(hot) != hotKeys {
		t.Errorf("%d distinct keys, want %d", len(hot), hotKeys)
	}
	// Connections interleave over every (key, targets) pair.
	if in.seq[0][0] != 0 || in.seq[1][0] != 1 || in.seq[0][1] != 2 {
		t.Errorf("rotation starts %v %v", in.seq[0][:2], in.seq[1][:1])
	}
}

func TestSweepSpecGrid(t *testing.T) {
	s := sweepSpec(5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.CellCount(); got != 486 {
		t.Fatalf("%d cells, want 486", got)
	}
	w := sweepWarmSpec()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := w.CellCount(); got != 54 {
		t.Fatalf("warm-up has %d cells, want 54", got)
	}
}

// TestSelfTimeSyntheticTree checks the self-time arithmetic on two
// request trees, one whose backend spans overlap (a retried request)
// and one whose spans stick out of their parents, and on a sweep pass
// whose children overlap and spill outside it.
func TestSelfTimeSyntheticTree(t *testing.T) {
	for _, c := range []struct {
		name                 string
		r                    requestTrace
		cs, rs, svc, clipped int64
	}{
		{"retried", requestTrace{client: interval{0, 100}, router: interval{10, 90},
			backends: []interval{{20, 50}, {40, 70}}}, 20, 30, 50, 0},
		// The router returns 7 ns after the client read the body, and
		// one backend span spills 4 ns past the clipped router span:
		// the parts still add up, and the 11 ns are counted.
		{"spilling", requestTrace{client: interval{0, 100}, router: interval{10, 107},
			backends: []interval{{20, 50}, {80, 104}}}, 10, 40, 50, 11},
	} {
		cs, rs, svc, clipped := c.r.partition()
		if cs != c.cs || rs != c.rs || svc != c.svc || clipped != c.clipped {
			t.Errorf("%s: client self %d, router self %d, service %d, clipped %d; want %d, %d, %d, %d",
				c.name, cs, rs, svc, clipped, c.cs, c.rs, c.svc, c.clipped)
		}
		if cs+rs+svc != c.r.client.dur() {
			t.Errorf("%s: parts do not add up to the client span", c.name)
		}
	}
	pass := interval{0, 100}
	children := []interval{{0, 40}, {10, 60}, {70, 90}, {55, 75}, {95, 130}, {-20, -5}}
	if got := selfTime(pass, children); got != 5 {
		t.Fatalf("pass self time %d, want 5 (only [90,95) is uncovered)", got)
	}
	if got := selfTime(pass, nil); got != 100 {
		t.Fatalf("childless self time %d, want 100", got)
	}
	if got := (interval{80, 120}).clip(interval{0, 100}); got != (interval{80, 100}) {
		t.Fatalf("clip = %v", got)
	}
}

func TestLinkRequests(t *testing.T) {
	spans := []span{
		{id: 1, layer: layerClient, iv: interval{0, 100}},
		{id: 1, layer: layerRouter, iv: interval{10, 90}, bytes: 1800},
		{id: 1, layer: layerBackend, iv: interval{20, 80}, status: 200},
		{id: 2, layer: layerClient, iv: interval{100, 200}},
		{id: 2, layer: layerBackend, iv: interval{120, 180}, status: 429},
	}
	linked, unlinked := linkRequests(spans)
	if len(linked) != 1 || unlinked != 1 {
		t.Fatalf("linked %d, unlinked %d; want 1, 1", len(linked), unlinked)
	}
	if r := linked[0]; r.relayed != 1800 || len(r.backends) != 1 || r.shed {
		t.Fatalf("linked request %+v", r)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3.1, 0.5, 9, 2.2, 7.7}, 1.35, 8.35},
	} {
		q1, q3 := quartiles(c.in)
		if d1, d3 := q1-c.q1, q3-c.q3; max(d1, -d1) > 1e-12 || max(d3, -d3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestWindowRates(t *testing.T) {
	done := []int64{1e8, 5e8, 1.2e9, 1.9e9, 2.5e9, 3.1e9}
	got := windowRates(done, 3.2e9)
	if !reflect.DeepEqual(got, []float64{2, 2, 1}) {
		t.Fatalf("windowRates = %v, want [2 2 1] (the partial fourth window is dropped)", got)
	}
}
