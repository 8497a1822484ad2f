package numeric

import "sync"

// ForChunks is the static fan-out shared by the Monte Carlo drivers and
// the parallel competitive-ratio scans. It splits [0, n) into
// contiguous chunks of size ceil(n/workers), with workers clamped to
// [1, n]: chunk w is [w*size, min((w+1)*size, n)), so there may be
// fewer chunks than workers. fn(w, lo, hi) runs once per chunk, each on
// its own goroutine; a single chunk runs inline on the caller's
// goroutine, and n == 0 runs nothing. Every chunk runs to completion
// whatever the others return, and the result is the error of the
// lowest-numbered failing chunk, or nil. Callers that give each index
// its own output slot and derive each index's randomness from the index
// get results that do not depend on workers.
func ForChunks(n, workers int, fn func(w, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers = min(max(workers, 1), n)
	size := (n + workers - 1) / workers
	if size == n {
		return fn(0, 0, n)
	}
	errs := make([]error, (n+size-1)/size)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w, w*size, min((w+1)*size, n))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
