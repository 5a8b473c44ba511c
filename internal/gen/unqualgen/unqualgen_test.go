package unqualgen

import (
	"testing"

	"repro/internal/validator"
	"repro/internal/vdom"
)

func buildOrder() *OrderElement {
	d := NewDocument()
	ot := d.CreateOrderTypeType(d.MustId("42"))
	ot.AddLine(d.CreateLine(d.CreateLineTypeType(d.CreateNote("rush"))))
	return d.CreateOrder(ot)
}

// TestUnqualifiedLocalsStreamValidate: local elements of a target
// namespace schema are in no namespace, so the bytes undeclare the
// default namespace on them (and declare it again on a global element
// referenced below one); the stream machine reading the bytes agrees
// with the tree.
func TestUnqualifiedLocalsStreamValidate(t *testing.T) {
	out, err := vdom.MarshalString(buildOrder())
	if err != nil {
		t.Fatal(err)
	}
	want := `<order xmlns="urn:example:unq"><id xmlns="">42</id>` +
		`<line xmlns=""><note xmlns="urn:example:unq">rush</note></line></order>`
	if out != want {
		t.Errorf("got  %s\nwant %s", out, want)
	}
	if res := validator.New(RT.Schema, nil).Stream().ValidateBytes([]byte(out)); !res.OK() {
		t.Fatalf("written bytes invalid:\n%v\n%s", res.Err(), out)
	}
	if err := RT.Verify(buildOrder()); err != nil {
		t.Fatal(err)
	}
}
