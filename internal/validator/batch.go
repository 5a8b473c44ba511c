package validator

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/dom"
)

// ValidateBatch validates every document concurrently through a bounded
// worker pool and returns one Result per document, index-aligned with
// docs. The pool has runtime.GOMAXPROCS(0) workers, all stepping the
// schema's compiled content models, which are built at most once. Nil
// documents yield a Result with a single violation rather than a panic.
//
// This is the bulk path for the ROADMAP's repeated same-schema workload:
// xsdcheck uses it to validate its file arguments in parallel.
func (v *Validator) ValidateBatch(docs []*dom.Document) []*Result {
	results, _ := v.ValidateBatchContext(context.Background(), docs)
	return results
}

// ValidateBatchContext is ValidateBatch with cancellation. When ctx is
// cancelled, in-flight documents finish but no new ones start; the
// returned error is ctx.Err() and the unprocessed slots of the result
// slice are nil. A nil slice is returned only for an empty batch.
func (v *Validator) ValidateBatchContext(ctx context.Context, docs []*dom.Document) ([]*Result, error) {
	if len(docs) == 0 {
		return nil, ctx.Err()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(docs) {
		workers = len(docs)
	}
	results := make([]*Result, len(docs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = v.validateOne(docs[i])
			}
		}()
	}
	var err error
feed:
	for i := range docs {
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

// validateOne guards a single batch slot against nil documents.
func (v *Validator) validateOne(doc *dom.Document) *Result {
	if doc == nil {
		return &Result{Violations: []Violation{{Path: "/", Msg: "nil document"}}}
	}
	return v.ValidateDocument(doc)
}
