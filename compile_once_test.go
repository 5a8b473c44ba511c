package repro

// Every consumer of a schema's content models reads the one model each
// complex type compiles: the validator (DOM and stream), bind and vdom
// hold no compiled state of their own, so a fresh Validator, Binder or
// Runtime recompiles nothing.

import (
	"sync"
	"testing"

	"repro/internal/bind"
	"repro/internal/contentmodel"
	"repro/internal/gen/pogen"
	"repro/internal/schemas"
	"repro/internal/validator"
	"repro/internal/vdom"
	"repro/internal/xsd"
)

// complexTypes lists every complex type of the schema, named and
// anonymous.
func complexTypes(s *xsd.Schema) []*xsd.ComplexType {
	var out []*xsd.ComplexType
	for _, t := range s.Types {
		if ct, ok := t.(*xsd.ComplexType); ok {
			out = append(out, ct)
		}
	}
	for _, t := range s.AnonymousTypes() {
		if ct, ok := t.(*xsd.ComplexType); ok {
			out = append(out, ct)
		}
	}
	return out
}

// TestCompiledModelsSharedOnce parses the purchase-order schema without
// the UPA check, so no model is compiled at parse, and has concurrent
// goroutines reach the models first through every consumer: DOM and
// stream validation, FromJSON and Runtime.Verify, each on fresh
// instances. Each type must end with one Matcher instance for all of them
// (and the lazy compile must be race-clean under -race).
func TestCompiledModelsSharedOnce(t *testing.T) {
	s, err := xsd.ParseString(schemas.PurchaseOrderXSD, &xsd.ParseOptions{SkipUPACheck: true})
	if err != nil {
		t.Fatal(err)
	}
	types := complexTypes(s)
	src := []byte(schemas.PurchaseOrderDoc)
	const workers = 8
	seen := make([][]contentmodel.Matcher, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := validator.New(s, nil)
			if _, res := validator.ValidateBytes(s, src); !res.OK() {
				t.Errorf("DOM: %v", res.Err())
			}
			if res := v.Stream().ValidateBytes(src); !res.OK() {
				t.Errorf("stream: %v", res.Err())
			}
			b := bind.New(s, v)
			val, res := b.DecodeBytes(src)
			if !res.OK() {
				t.Errorf("decode: %v", res.Err())
				return
			}
			if _, err := b.FromJSON(b.JSON(val)); err != nil {
				t.Errorf("FromJSON: %v", err)
			}
			rt := &vdom.Runtime{Schema: s}
			if err := rt.Verify(buildVDOMOrder(pogen.NewDocument(), 3)); err != nil {
				t.Errorf("Verify: %v", err)
			}
			for _, ct := range types {
				seen[w] = append(seen[w], ct.Matcher(s))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i, ct := range types {
			if seen[w][i] != seen[0][i] {
				t.Fatalf("type %v (%s): goroutines saw two compiled models", ct.Name, ct.Context)
			}
		}
	}
	// A fresh Validator per call (package ValidateBytes) steps the
	// schema's own automaton: its shared DFA grows past the start state.
	s, err = xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, res := validator.ValidateBytes(s, src); !res.OK() {
		t.Fatal(res.Err())
	}
	po := s.Types[xsd.QName{Local: "PurchaseOrderType"}].(*xsd.ComplexType)
	g, ok := po.Matcher(s).(*contentmodel.Glushkov)
	if !ok || !g.DFAEnabled() {
		t.Fatalf("PurchaseOrderType: want a DFA-backed automaton, got %T", po.Matcher(s))
	}
	if n := g.DFAStates(); n < 2 {
		t.Errorf("PurchaseOrderType DFA has %d states; validation did not step the schema's model", n)
	}
}
