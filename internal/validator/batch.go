package validator

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ValidateBatch validates every serialized document concurrently and
// returns one Result per document, index-aligned with srcs. Each slot is
// one ValidateBytes run, so no DOM is built and a malformed (or empty)
// source gets its parse error as its one violation. The caller's goroutine
// and up to runtime.GOMAXPROCS(0)-1 helpers validate, all stepping the
// schema's compiled content models, which are built at most once.
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
// slice are nil. A nil slice is returned only for an empty batch. No
// helper goroutine outlives the call.
//
// Each goroutine claims the next unvalidated index from one counter, and
// checks ctx before each claim.
func (sv *StreamValidator) ValidateBatchContext(ctx context.Context, srcs [][]byte) ([]*Result, error) {
	if len(srcs) == 0 {
		return nil, ctx.Err()
	}
	results := make([]*Result, len(srcs))
	var next atomic.Int64
	validate := func() {
		for ctx.Err() == nil {
			i := next.Add(1) - 1
			if i >= int64(len(srcs)) {
				return
			}
			results[i] = sv.ValidateBytes(srcs[i])
		}
	}
	helpers := min(runtime.GOMAXPROCS(0), len(srcs)) - 1
	var wg sync.WaitGroup
	wg.Add(helpers)
	for range helpers {
		go func() {
			defer wg.Done()
			validate()
		}()
	}
	validate()
	wg.Wait()
	// Every slot was claimed unless a goroutine stopped at a cancelled ctx.
	if next.Load() < int64(len(srcs)) {
		return results, ctx.Err()
	}
	return results, nil
}
