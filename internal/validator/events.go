package validator

// Observer hook: typed access rides on the pass that decides validity.
//
// Both validation walks — the recursive DOM walk and the streaming frame
// machine — already compute, element by element, everything a
// schema-directed decoder needs: the governing declaration (after
// substitution and xsi:type resolution), the parsed simple value of every
// text leaf, and the exact extent of unvalidated wildcard subtrees.
// StreamEvents exposes those facts as callbacks, and both walks fire the
// same sequence for the same document, so one consumer (internal/bind)
// builds typed values in the same pass whichever walk runs, without
// re-deriving any of it and without the validator knowing anything about
// binding. A subtree the streaming walk hands to the DOM walk (identity
// constraints, non-Glushkov models) fires its events from that nested run.
//
// Verdict parity is untouched: events are fired from the existing walk
// transitions and never alter them, and a walk with no observer pays one
// nil check per element. On invalid documents the callback sequence still
// pairs every OpenElement with a CloseElement, so a consumer's stack stays
// balanced; whether to trust the partial structure is the consumer's call
// (bind discards it).

import (
	"context"
	"io"

	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// Attr is one attribute of an opened element as written in the instance.
type Attr struct {
	Name  xsd.QName
	Value string
}

// ElementStart describes an element whose prologue (xsi:type, abstract
// type, xsi:nil) passed.
type ElementStart struct {
	// Decl is the governing declaration (after wildcard/substitution
	// resolution); Type the effective type (after xsi:type).
	Decl *xsd.ElementDecl
	Type xsd.Type
	// Name is the element's instance name.
	Name xsd.QName
	// Attrs are the attributes other than namespace declarations and
	// xsi:/xml: ones, in document order. The slice is reused after the
	// call returns.
	Attrs []Attr
	// XSIType marks an element whose type was set by xsi:type; Nilled marks
	// xsi:nil="true"; Wildcard marks an element admitted by a content-model
	// wildcard.
	XSIType, Nilled, Wildcard bool
}

// StreamEvents receives structural callbacks during a validation pass.
// Implementations must not retain ElementStart.Attrs or the *dom.Element
// beyond the call: the attribute slice is scratch space, and raw elements
// from the streaming walk live in a pooled document that is released when
// the callback returns.
type StreamEvents interface {
	// OpenElement fires when a validated element opens.
	OpenElement(e ElementStart)

	// CloseElement fires when the matching element closes. val is the
	// parsed simple value for simple-typed and simple-content elements
	// (nil when the element has no simple value or its text failed to
	// parse — the document is invalid in that case).
	CloseElement(val *xsdtypes.Value)

	// MixedText fires for character data directly inside a mixed-content
	// element, one call per text or CDATA node, in document order.
	MixedText(data string)

	// RawElement fires for a skipped wildcard subtree (a lax wildcard match
	// with no global declaration), handed over whole. The validator
	// guarantees nothing about its content.
	RawElement(el *dom.Element)
}

// ValidateDocumentEvents is ValidateDocument with an event observer: ev
// receives the callbacks above while the verdict is computed exactly as
// without an observer.
func (v *Validator) ValidateDocumentEvents(doc *dom.Document, ev StreamEvents) *Result {
	r := &run{v: v, ids: map[string]loc{}, events: ev}
	r.document(doc)
	return r.result()
}

// ValidateElementEvents is ValidateElement with an event observer.
func (v *Validator) ValidateElementEvents(el *dom.Element, decl *xsd.ElementDecl, ev StreamEvents) *Result {
	r := &run{v: v, ids: map[string]loc{}, events: ev}
	r.anchor(el, "/"+el.TagName())
	r.element(el, decl, false)
	r.checkIDRefs()
	return r.result()
}

// ValidateReaderEvents is ValidateReaderContext with an event observer.
func (sv *StreamValidator) ValidateReaderEvents(ctx context.Context, r io.Reader, ev StreamEvents) (*Result, error) {
	return sv.validate(ctx, xmlparser.NewReaderDecoder(r, nil), ev)
}

// ValidateBytesEvents is ValidateBytes with an event observer.
func (sv *StreamValidator) ValidateBytesEvents(src []byte, ev StreamEvents) *Result {
	res, _ := sv.validate(context.Background(), xmlparser.NewDecoder(src, nil), ev)
	return res
}
