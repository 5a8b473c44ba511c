package bind

// Support surface for ahead-of-time generated binding code (the validator
// back end of internal/codegen). Generated packages build Value trees with
// specialized straight-line walks, but delegate cold paths — xsi:type
// substitutions, declarations pruned out of the generated code — to the
// generic decoder, and reuse the canonical serializer and mixed-content
// merge rule so their output is byte-identical to the interpreted path.

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/xsd"
)

// SetType sets the effective governing type generated decoders record on
// the values they build (the generic decoder sets it internally).
func (v *Value) SetType(t xsd.Type) { v.typ = t }

// DecodeElement decodes one element governed by decl, inside a document the
// validator has already accepted, on the generic walk. wild marks
// wildcard-admitted elements (bound under "$any"). The subtree's own
// verdict is not consulted: an IDREF in it may point outside it.
func (b *Binder) DecodeElement(el *dom.Element, decl *xsd.ElementDecl, wild bool) (*Value, error) {
	d := &decoder{b: b}
	b.v.ValidateElementEvents(el, decl, d)
	if d.err != nil {
		return nil, d.err
	}
	if d.root == nil {
		return nil, fmt.Errorf("bind: element <%s> does not match its declaration %s", el.TagName(), decl.Name)
	}
	d.root.Wild = wild
	return d.root, nil
}

// AppendText adds character data to a mixed-content segment list with the
// canonical merge rule (adjacent text coalesced, empty runs dropped).
func AppendText(segs []Segment, data string) []Segment { return appendText(segs, data) }
