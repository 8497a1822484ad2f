package numeric

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// goid returns the current goroutine's id, parsed from the header line
// of its stack trace ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

func TestForChunks(t *testing.T) {
	for _, c := range []struct {
		n, workers int
		want       [][2]int // chunk w covers [want[w][0], want[w][1])
	}{
		{n: 0, workers: 4},
		{n: 1, workers: 1, want: [][2]int{{0, 1}}},
		{n: 10, workers: 1, want: [][2]int{{0, 10}}},
		{n: 10, workers: 0, want: [][2]int{{0, 10}}},
		{n: 10, workers: -3, want: [][2]int{{0, 10}}},
		{n: 3, workers: 8, want: [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{n: 10, workers: 2, want: [][2]int{{0, 5}, {5, 10}}},
		{n: 10, workers: 3, want: [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		// ceil(10/4) = 3, so the fourth chunk holds one index.
		{n: 10, workers: 4, want: [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
		// ceil(10/6) = 2 leaves only 5 chunks for 6 workers.
		{n: 10, workers: 6, want: [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 10}}},
	} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", c.n, c.workers), func(t *testing.T) {
			var mu sync.Mutex
			got := make([][2]int, len(c.want))
			calls := 0
			covered := make([]int, c.n)
			caller := goid()
			inline := true
			err := ForChunks(c.n, c.workers, func(w, lo, hi int) error {
				mu.Lock()
				defer mu.Unlock()
				calls++
				if w < 0 || w >= len(got) {
					t.Errorf("chunk index %d out of range", w)
					return nil
				}
				got[w] = [2]int{lo, hi}
				for i := lo; i < hi; i++ {
					covered[i]++
				}
				inline = inline && goid() == caller
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if calls != len(c.want) {
				t.Fatalf("fn ran %d times, want %d", calls, len(c.want))
			}
			for w := range c.want {
				if got[w] != c.want[w] {
					t.Errorf("chunk %d = %v, want %v", w, got[w], c.want[w])
				}
			}
			for i, k := range covered {
				if k != 1 {
					t.Errorf("index %d covered %d times", i, k)
				}
			}
			if single := len(c.want) == 1; single != inline && calls > 0 {
				t.Errorf("one chunk: %v, but ran on the caller's goroutine: %v", single, inline)
			}
		})
	}
}

func TestForChunksFirstError(t *testing.T) {
	errAt := map[int]error{1: errors.New("chunk 1"), 3: errors.New("chunk 3")}
	var mu sync.Mutex
	done := make([]bool, 5)
	chunk3 := make(chan struct{})
	err := ForChunks(10, 5, func(w, lo, hi int) error {
		switch w {
		case 1:
			// Fail after chunk 3: the lower-numbered chunk still wins.
			<-chunk3
		case 3:
			defer close(chunk3)
		}
		mu.Lock()
		done[w] = true
		mu.Unlock()
		return errAt[w]
	})
	if err != errAt[1] {
		t.Errorf("err = %v, want the lowest failing chunk's %v", err, errAt[1])
	}
	for w, ok := range done {
		if !ok {
			t.Errorf("chunk %d did not run to completion", w)
		}
	}
	if err := ForChunks(4, 1, func(int, int, int) error { return errAt[3] }); err != errAt[3] {
		t.Errorf("inline chunk err = %v, want %v", err, errAt[3])
	}
}

func TestMeanMinMax(t *testing.T) {
	mean, lo, hi := MeanMinMax([]float64{3, -1, 1e16, 1, -1e16})
	if mean != 0.6 || lo != -1e16 || hi != 1e16 {
		t.Errorf("MeanMinMax = %v %v %v, want 0.6 -1e16 1e16 (compensated)", mean, lo, hi)
	}
	mean, lo, hi = MeanMinMax(nil)
	if !math.IsNaN(mean) || !math.IsInf(lo, 1) || !math.IsInf(hi, -1) {
		t.Errorf("MeanMinMax(nil) = %v %v %v, want NaN +Inf -Inf", mean, lo, hi)
	}
}
