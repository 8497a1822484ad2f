package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"linesearch/internal/service"
	"linesearch/internal/sweep"
)

// Workload parameters. The plan-key universe and zipf exponent are
// cmd/loadgen's defaults, so the benchmark's key mix is the one the
// repository already uses for load tests.
const (
	planKeyUniverse = 500
	zipfS           = 1.2
	// streamLen is the length of each connection's pre-generated
	// request sequence; a run that outlasts it wraps around.
	streamLen = 1 << 17

	hotKeys       = 8
	targetLists   = 64
	targetsPerReq = 1000
	// targetDigits is the number of significant digits a target is
	// sent with; the benchmark parses the sent text back, so the
	// standalone kernel measurement evaluates exactly the floats the
	// service parses.
	targetDigits = 8
	maxTarget    = 1e4

	sweepXMax       = 1e4
	sweepGridPoints = 4096
	// sweepLayerStride picks every 5th grid cell for the standalone
	// compile and CR measurement; 5 is coprime with the 3 values of f,
	// so every f is sampled.
	sweepLayerStride = 5
)

// pair is one (n, f) plan key.
type pair struct{ N, F int }

// loadgenKeys enumerates the first count (n, f) pairs in cmd/loadgen's
// order: n = 2, 3, ... and f = 1 .. n-1 within each n. Rank 0 is the
// hottest zipf key.
func loadgenKeys(count int) []pair {
	keys := make([]pair, 0, count)
	for n := 2; len(keys) < count; n++ {
		for f := 1; f < n && len(keys) < count; f++ {
			keys = append(keys, pair{n, f})
		}
	}
	return keys
}

// subSeed derives the seed of one named input stream from the run
// seed, so streams of different names or indices never coincide.
func subSeed(seed int64, name string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, name, i)
	return int64(h.Sum64() >> 1)
}

// zipfRanks draws length zipf ranks over [0, universe).
func zipfRanks(seed int64, length int) []int32 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, planKeyUniverse-1)
	out := make([]int32, length)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// servingInputs is everything one serving workload sends: the distinct
// request paths and, per connection, the order they are sent in.
type servingInputs struct {
	paths []string
	seq   [][]int32 // seq[c][i] indexes paths
	// keys[i] is the plan key of paths[i].
	keys []pair
	// targets[i] is the target list of paths[i] (searchtimes-batch only).
	targets [][]float64
}

// planZipfInputs builds plan-zipf: every connection draws its own zipf
// stream over loadgen's 500 keys.
func planZipfInputs(seed int64, conns int) servingInputs {
	keys := loadgenKeys(planKeyUniverse)
	in := servingInputs{keys: keys}
	for _, k := range keys {
		in.paths = append(in.paths, fmt.Sprintf("/v1/plan?n=%d&f=%d", k.N, k.F))
	}
	for c := 0; c < conns; c++ {
		in.seq = append(in.seq, zipfRanks(subSeed(seed, "plan-zipf", c), streamLen))
	}
	return in
}

// searchtimesInputs builds searchtimes-batch: 64 seeded lists of 1000
// targets (|x| log-uniform in [1, 1e4], random sign), each paired with
// one of the 8 hot plan keys, the zipf head of the plan-zipf universe.
// The seed draws the targets and which key each list goes with (every
// key gets 8 lists). Connection c sends pairs c, c+conns, ... so the
// connections interleave over all 64.
func searchtimesInputs(seed int64, conns int) servingInputs {
	hot := loadgenKeys(hotKeys)
	owner := make([]int, targetLists)
	for i := range owner {
		owner[i] = i % hotKeys
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "searchtimes-targets", 0)))
	rng.Shuffle(len(owner), func(i, j int) { owner[i], owner[j] = owner[j], owner[i] })
	in := servingInputs{}
	for i := 0; i < targetLists; i++ {
		k := hot[owner[i]]
		xs := make([]float64, targetsPerReq)
		var b strings.Builder
		fmt.Fprintf(&b, "/v1/searchtimes?n=%d&f=%d&xs=", k.N, k.F)
		for j := range xs {
			x := math.Exp(rng.Float64() * math.Log(maxTarget))
			if rng.Intn(2) == 0 {
				x = -x
			}
			text := strconv.FormatFloat(x, 'g', targetDigits, 64)
			xs[j], _ = strconv.ParseFloat(text, 64)
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(text)
		}
		in.paths = append(in.paths, b.String())
		in.keys = append(in.keys, k)
		in.targets = append(in.targets, xs)
	}
	for c := 0; c < conns; c++ {
		seq := make([]int32, streamLen)
		for i := range seq {
			seq[i] = int32((c + i*conns) % targetLists)
		}
		in.seq = append(in.seq, seq)
	}
	return in
}

// planKey is the service's cache key for a plain (n, f) query.
func planKey(p pair) service.PlanKey { return service.PlanKey{N: p.N, F: p.F, MinDist: 1} }

// sweepSpec is sweep-grid's grid: N 7..60 x F 1..3 x {auto, doubling,
// byzantine}, xmax 1e4, 4096 grid points, 486 cells with no invalid
// cell. The seed shuffles the N axis, which changes the cell order and
// the job ID but not the set of cells.
func sweepSpec(seed int64) sweep.Spec {
	return sweep.Spec{
		Name:       fmt.Sprintf("perfbench-%d", seed),
		N:          shuffledRange(seed, 7, 60),
		F:          []int{1, 2, 3},
		Strategies: []string{sweep.StrategyAuto, "doubling", "byzantine"},
		XMax:       sweepXMax,
		GridPoints: sweepGridPoints,
	}
}

// sweepWarmSpec is the fixed warm-up grid run during set-up: the same
// strategies and measurement over N 7..12 (54 cells).
func sweepWarmSpec() sweep.Spec {
	s := sweepSpec(0)
	s.Name = "perfbench-warmup"
	s.N = shuffledRange(0, 7, 12)
	return s
}

func shuffledRange(seed int64, lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "sweep-n", 0)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
