package validator

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestValidateBatch checks index alignment, mixed outcomes and an empty
// source, whose verdict is the parse error.
func TestValidateBatch(t *testing.T) {
	sv := poValidator(t).Stream()
	good := []byte(schemas.PurchaseOrderDoc)
	bad := []byte(`<purchaseOrder orderDate="1999-10-20"><bogus/></purchaseOrder>`)
	srcs := make([][]byte, 0, 40)
	for i := 0; i < 20; i++ {
		srcs = append(srcs, good, bad)
	}
	srcs[7] = nil
	results := sv.ValidateBatch(srcs)
	if len(results) != len(srcs) {
		t.Fatalf("got %d results for %d docs", len(results), len(srcs))
	}
	empty := sv.ValidateBytes(nil)
	if empty.OK() || empty.Violations[0].Path != "/" {
		t.Fatalf("empty source: want a parse error at /, got %+v", empty)
	}
	for i, res := range results {
		switch {
		case res == nil:
			t.Fatalf("result %d is nil", i)
		case i == 7:
			if fmt.Sprint(res.Violations) != fmt.Sprint(empty.Violations) {
				t.Errorf("empty source: got %v, want %v", res.Violations, empty.Violations)
			}
		case i%2 == 0 && !res.OK():
			t.Errorf("doc %d (valid) rejected: %v", i, res.Err())
		case i%2 == 1 && res.OK():
			t.Errorf("doc %d (invalid) accepted", i)
		}
	}
	if results, _ := sv.ValidateBatchContext(context.Background(), nil); results != nil {
		t.Errorf("empty batch should return nil, got %v", results)
	}
}

// cancelAfter is a context that reads as cancelled from its n+1st Err
// call on.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestValidateBatchCancellation checks that a cancelled context stops the
// claims: the call returns ctx.Err(), leaves unprocessed slots nil, and no
// helper goroutine outlives it. It cancels once before the batch starts
// and once after ten claims.
func TestValidateBatchCancellation(t *testing.T) {
	sv := poValidator(t).Stream()
	srcs := make([][]byte, 500)
	for i := range srcs {
		srcs[i] = []byte(schemas.PurchaseOrderDoc)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts
	mid := &cancelAfter{Context: context.Background()}
	mid.n.Store(10)
	for _, tc := range []struct {
		ctx  context.Context
		done int
	}{{ctx, 0}, {mid, 10}} {
		results, cerr := sv.ValidateBatchContext(tc.ctx, srcs)
		if cerr != context.Canceled {
			t.Fatalf("cancelled batch returned %v, want context.Canceled", cerr)
		}
		if len(results) != len(srcs) {
			t.Fatalf("result slice must stay index-aligned: %d vs %d", len(results), len(srcs))
		}
		done := 0
		for _, res := range results {
			if res != nil {
				done++
			}
		}
		if done != tc.done {
			t.Errorf("cancelled batch validated %d documents, want %d", done, tc.done)
		}
	}
	// A helper that has called Done may not have exited yet; give the
	// scheduler a moment before calling it leaked.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the batches, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
