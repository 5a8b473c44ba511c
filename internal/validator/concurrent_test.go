package validator

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/schemas"
)

// TestConcurrentValidation drives one shared Validator from many
// goroutines (run under -race in the tier-1 recipe): the compiled-model
// cache, the schema and the read-only documents are all shared; only the
// per-run state is private.
func TestConcurrentValidation(t *testing.T) {
	v := poValidator(t)
	doc, err := dom.ParseString(schemas.PurchaseOrderDoc)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Mix shared-document and private-document runs, plus the
				// invalid path, to cover both outcomes concurrently.
				if res := v.ValidateDocument(doc); !res.OK() {
					errs <- fmt.Errorf("goroutine %d: valid doc rejected: %v", id, res.Err())
					return
				}
				own, perr := dom.ParseString(schemas.PurchaseOrderDoc)
				if perr != nil {
					errs <- perr
					return
				}
				if res := v.ValidateDocument(own); !res.OK() {
					errs <- fmt.Errorf("goroutine %d: private doc rejected: %v", id, res.Err())
					return
				}
				bad, perr := dom.ParseString(`<purchaseOrder orderDate="1999-10-20"><bogus/></purchaseOrder>`)
				if perr != nil {
					errs <- perr
					return
				}
				if res := v.ValidateDocument(bad); res.OK() {
					errs <- fmt.Errorf("goroutine %d: invalid doc accepted", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestValidateBatch checks index alignment, mixed outcomes and nil slots.
func TestValidateBatch(t *testing.T) {
	v := poValidator(t)
	good, err := dom.ParseString(schemas.PurchaseOrderDoc)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := dom.ParseString(`<purchaseOrder orderDate="1999-10-20"><bogus/></purchaseOrder>`)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*dom.Document, 0, 40)
	for i := 0; i < 20; i++ {
		docs = append(docs, good, bad)
	}
	docs[7] = nil
	results := v.ValidateBatch(docs)
	if len(results) != len(docs) {
		t.Fatalf("got %d results for %d docs", len(results), len(docs))
	}
	for i, res := range results {
		switch {
		case res == nil:
			t.Fatalf("result %d is nil", i)
		case i == 7:
			wantViolation(t, res, "nil document")
		case i%2 == 0 && !res.OK():
			t.Errorf("doc %d (valid) rejected: %v", i, res.Err())
		case i%2 == 1 && res.OK():
			t.Errorf("doc %d (invalid) accepted", i)
		}
	}
	if results, _ := v.ValidateBatchContext(context.Background(), nil); results != nil {
		t.Errorf("empty batch should return nil, got %v", results)
	}
}

// TestValidateBatchCancellation checks that a cancelled context stops the
// feed: the call returns ctx.Err() and leaves unprocessed slots nil.
func TestValidateBatchCancellation(t *testing.T) {
	v := poValidator(t)
	doc, err := dom.ParseString(schemas.PurchaseOrderDoc)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*dom.Document, 500)
	for i := range docs {
		docs[i] = doc
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts
	results, cerr := v.ValidateBatchContext(ctx, docs)
	if cerr == nil {
		t.Fatal("expected a context error from a cancelled batch")
	}
	if len(results) != len(docs) {
		t.Fatalf("result slice must stay index-aligned: %d vs %d", len(results), len(docs))
	}
	done := 0
	for _, res := range results {
		if res != nil {
			done++
		}
	}
	if done == len(docs) {
		t.Error("cancelled batch still processed every document")
	}
}
