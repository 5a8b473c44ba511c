package validator

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/schemas"
)

// streamDiff validates src through both paths of the same Validator and
// asserts identical results.
func streamDiff(t *testing.T, v *Validator, label, src string) {
	t.Helper()
	var domRes *Result
	if doc, err := dom.ParseString(src); err != nil {
		domRes = &Result{Violations: []Violation{{Path: "/", Msg: err.Error()}}}
	} else {
		domRes = v.ValidateDocument(doc)
	}
	streamRes := v.Stream().ValidateBytes([]byte(src))
	if len(domRes.Violations) != len(streamRes.Violations) {
		t.Fatalf("%s: dom %d violations, stream %d\n  dom: %v\n  stream: %v",
			label, len(domRes.Violations), len(streamRes.Violations), domRes.Violations, streamRes.Violations)
	}
	for i := range domRes.Violations {
		if domRes.Violations[i] != streamRes.Violations[i] {
			t.Errorf("%s: violation %d diverged:\n  dom:    %v\n  stream: %v",
				label, i, domRes.Violations[i], streamRes.Violations[i])
		}
	}
}

func TestStreamValidatesReader(t *testing.T) {
	v := poValidator(t)
	res := v.Stream().ValidateReader(strings.NewReader(schemas.PurchaseOrderDoc))
	if !res.OK() {
		t.Fatalf("valid document rejected by streaming path: %v", res.Err())
	}
}

func TestStreamRejectsWithDOMMessages(t *testing.T) {
	v := poValidator(t)
	res := v.Stream().ValidateBytes([]byte(
		`<purchaseOrder><shipTo country="US"><street>s</street><name>n</name><city>c</city><state>st</state><zip>1</zip></shipTo><billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo><items/></purchaseOrder>`))
	if res.OK() {
		t.Fatal("out-of-order children accepted")
	}
	if got := res.Violations[0].Path; got != "/purchaseOrder/shipTo/street" {
		t.Errorf("violation path = %q, want the failing child's path", got)
	}
}

// TestStreamIdentityFallback proves identity-constrained subtrees get the
// same verdicts from the decoder as from a tree: the machine buffers the
// <order> subtree (its declaration carries key/keyref/unique) and replays
// it into itself.
func TestStreamIdentityFallback(t *testing.T) {
	v := icValidator(t)
	for label, src := range map[string]string{
		"valid keys":      `<order><item partNum="100-AA"><sku>s1</sku></item><ref part="100-AA"/></order>`,
		"duplicate key":   `<order><item partNum="100-AA"/><item partNum="100-AA"/></order>`,
		"dangling keyref": `<order><item partNum="100-AA"/><ref part="999-ZZ"/></order>`,
		"missing field":   `<order><item/></order>`,
	} {
		streamDiff(t, v, label, src)
	}
	res := v.Stream().ValidateBytes([]byte(`<order><item partNum="1"/><item partNum="1"/></order>`))
	if res.OK() || !strings.Contains(res.Err().Error(), "duplicate value") {
		t.Errorf("identity constraint not enforced through the buffered replay: %v", res.Err())
	}
}

// TestStreamConcurrent drives one shared Validator's streaming path from
// many goroutines (run under -race in the tier-1 extended recipe). The
// compiled-model cache is the only shared mutable state; every run's
// frames, ID maps and results are private.
func TestStreamConcurrent(t *testing.T) {
	v := poValidator(t)
	sv := v.Stream()
	valid := []byte(schemas.PurchaseOrderDoc)
	invalid := []byte(`<purchaseOrder orderDate="1999-10-20"><bogus/></purchaseOrder>`)
	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if res := sv.ValidateBytes(valid); !res.OK() {
					errs <- fmt.Errorf("goroutine %d: valid doc rejected: %v", id, res.Err())
					return
				}
				if res := sv.ValidateReader(strings.NewReader(schemas.PurchaseOrderDoc)); !res.OK() {
					errs <- fmt.Errorf("goroutine %d: valid doc rejected via reader: %v", id, res.Err())
					return
				}
				if res := sv.ValidateBytes(invalid); res.OK() {
					errs <- fmt.Errorf("goroutine %d: invalid doc accepted", id)
					return
				}
				// Interleave DOM-path runs on the same Validator: both
				// paths share the model cache.
				doc, perr := dom.ParseString(schemas.PurchaseOrderDoc)
				if perr != nil {
					errs <- perr
					return
				}
				if res := v.ValidateDocument(doc); !res.OK() {
					errs <- fmt.Errorf("goroutine %d: DOM path rejected valid doc: %v", id, res.Err())
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
	// Concurrent streaming must not have defeated the cache: the document
	// exercises a handful of complex types, each compiled exactly once.
	if n := v.CompiledModels(); n == 0 || n > 8 {
		t.Errorf("compiled %d models across concurrent stream+DOM runs — cache not shared", n)
	}
}

// cancelAfterReader cancels a context after n Reads, then keeps serving
// data — modelling a deadline tripping mid-stream rather than a closed
// connection.
type cancelAfterReader struct {
	r      io.Reader
	cancel context.CancelFunc
	reads  int
	after  int
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	c.reads++
	if c.reads == c.after {
		c.cancel()
	}
	if len(p) > 16 {
		p = p[:16] // small reads so cancellation lands mid-document
	}
	return c.r.Read(p)
}

func TestStreamValidateReaderContext(t *testing.T) {
	v := poValidator(t)
	sv := v.Stream()

	t.Run("uncancelled matches ValidateReader", func(t *testing.T) {
		res, err := sv.ValidateReaderContext(context.Background(), strings.NewReader(schemas.PurchaseOrderDoc))
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !res.OK() {
			t.Fatalf("valid document rejected: %v", res.Err())
		}
	})

	t.Run("pre-cancelled returns immediately", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := sv.ValidateReaderContext(ctx, strings.NewReader(schemas.PurchaseOrderDoc))
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Fatalf("partial result returned on cancellation: %+v", res)
		}
	})

	t.Run("cancel mid-stream stops the run", func(t *testing.T) {
		// A document long enough that > ctxCheckEvery tokens remain after
		// the cancellation point.
		var sb strings.Builder
		sb.WriteString(`<purchaseOrder orderDate="1999-10-20"><shipTo country="US"><name>a</name><street>s</street><city>c</city><state>CA</state><zip>1</zip></shipTo><billTo country="US"><name>b</name><street>s</street><city>c</city><state>PA</state><zip>2</zip></billTo><items>`)
		for i := 0; i < 2000; i++ {
			fmt.Fprintf(&sb, `<item partNum="%03d-AB"><productName>p</productName><quantity>1</quantity><USPrice>1.00</USPrice></item>`, i%1000)
		}
		sb.WriteString(`</items></purchaseOrder>`)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		r := &cancelAfterReader{r: strings.NewReader(sb.String()), cancel: cancel, after: 8}
		res, err := sv.ValidateReaderContext(ctx, r)
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Fatalf("partial result returned on cancellation")
		}
	})
}
