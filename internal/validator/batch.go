package validator

import (
	"context"
	"runtime"
	"sync"
)

// ValidateBatch validates every serialized document concurrently through a
// bounded worker pool and returns one Result per document, index-aligned
// with srcs. Each slot is one ValidateBytes run, so no DOM is built and a
// malformed (or empty) source gets its parse error as its one violation.
// The pool has runtime.GOMAXPROCS(0) workers, all stepping the schema's
// compiled content models, which are built at most once.
//
// This is the bulk path for the ROADMAP's repeated same-schema workload:
// xsdserved's /v1/validate-batch runs its documents through it.
func (sv *StreamValidator) ValidateBatch(srcs [][]byte) []*Result {
	results, _ := sv.ValidateBatchContext(context.Background(), srcs)
	return results
}

// ValidateBatchContext is ValidateBatch with cancellation. When ctx is
// cancelled, in-flight documents finish but no new ones start; the
// returned error is ctx.Err() and the unprocessed slots of the result
// slice are nil. A nil slice is returned only for an empty batch.
func (sv *StreamValidator) ValidateBatchContext(ctx context.Context, srcs [][]byte) ([]*Result, error) {
	if len(srcs) == 0 {
		return nil, ctx.Err()
	}
	workers := min(runtime.GOMAXPROCS(0), len(srcs))
	results := make([]*Result, len(srcs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = sv.ValidateBytes(srcs[i])
			}
		}()
	}
	var err error
feed:
	for i := range srcs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return results, err
}
