package main

import (
	"fmt"
	"math"
	"sort"
)

// tally counts attempted and failed operations and keeps the first
// few failure messages.
type tally struct {
	attempted, failed int64
	failures          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.failures = append(t.failures, u.failures...)
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// values, sorting them in place; 0 for no values.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	i := int(math.Ceil(q*float64(len(values)))) - 1
	if i < 0 {
		i = 0
	}
	return values[i]
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), which is how the benchmark's steadiness is
// judged. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// windowRates counts completions (offsets in ns from the phase start)
// per one-second window and returns the rate of each full window.
func windowRates(doneAt []int64, elapsedNs int64) []float64 {
	const window = int64(1e9)
	n := int(elapsedNs / window)
	if n == 0 {
		return []float64{float64(len(doneAt)) / (float64(elapsedNs) / 1e9)}
	}
	counts := make([]float64, n)
	for _, t := range doneAt {
		if w := int(t / window); w < n {
			counts[w]++
		}
	}
	return counts
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
