package core

import (
	"sync"
	"sync/atomic"
)

// parallelFor runs fn over the index range [0, n) split into contiguous
// chunks, executed by up to workers goroutines, the calling goroutine
// included. Chunks are
// disjoint, so fn may write to per-index slots of shared slices without
// synchronization, and the union of all chunk iterations is exactly the
// serial loop — results are bit-identical to workers == 1. Errors are
// collected per chunk and the first one in chunk order is returned, so
// error reporting is deterministic too. Ranges shorter than minChunk
// run serially.
func parallelFor(n, workers, minChunk int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if minChunk < 1 {
		minChunk = 1
	}
	if max := n / minChunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		return fn(0, n)
	}
	// More chunks than workers so a slow chunk doesn't straggle the run;
	// a shared atomic cursor hands chunks to whichever worker is free.
	nchunks := workers * 4
	size := (n + nchunks - 1) / nchunks
	if size < minChunk {
		size = minChunk
	}
	nchunks = (n + size - 1) / size
	errs := make([]error, nchunks)
	var next atomic.Int64
	work := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= nchunks {
				return
			}
			lo := c * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			errs[c] = fn(lo, hi)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// itemChunk is the minimum per-item work batch; below this the
// goroutine handoff costs more than the loop body.
const itemChunk = 2048
