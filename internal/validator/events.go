package validator

// Observer hook: typed access rides on the pass that decides validity.
//
// The validation machine already computes, element by element, everything
// a schema-directed decoder needs: the governing declaration (after
// substitution and xsi:type resolution), the parsed simple value of every
// text leaf, and the exact extent of unvalidated wildcard subtrees.
// StreamEvents exposes those facts as callbacks. The machine fires the same
// sequence for the same document whether its tokens come from the decoder,
// from a parsed tree or from bind's encoder, so one consumer
// (internal/bind) builds typed values in the same pass whatever the entry
// point, without re-deriving any of it and without the validator knowing
// anything about binding.
//
// Verdict parity is untouched: events are fired from the existing machine
// transitions and never alter them, and a run with no observer pays one
// nil check per element. On invalid documents the callback sequence still
// pairs every OpenElement with a CloseElement, so a consumer's stack stays
// balanced; whether to trust the partial structure is the consumer's call
// (bind discards it).

import (
	"context"
	"io"

	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// Attr is one attribute of an opened element as written in the instance.
// Typed marks Val as the value the machine parsed it to in its declared
// type; undeclared, wildcard-admitted and unparsable values are untyped.
type Attr struct {
	Name  xsd.QName
	Value string
	Val   xsdtypes.Value
	Typed bool
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
// Implementations must not retain ElementStart.Attrs or CloseElement's val
// beyond the call: the attribute slice and the value are the machine's
// scratch space (copy *val to keep it). The strings inside *val, the
// attributes' values and a raw element's text are the observer's to keep:
// the machine parses an announced element's text from its own copy, never
// from a view of its buffer.
type StreamEvents interface {
	// OpenElement fires when a validated element opens.
	OpenElement(e ElementStart)

	// CloseElement fires when the matching element closes. val is the
	// parsed simple value for simple-typed and simple-content elements
	// (nil when the element has no simple value or its text failed to
	// parse — the document is invalid in that case). *val is valid only
	// during the call; a copy of it, strings included, may be kept.
	CloseElement(val *xsdtypes.Value)

	// MixedText fires for character data directly inside a mixed-content
	// element, one call per text or CDATA node, in document order.
	MixedText(data string)

	// RawElement fires for a skipped wildcard subtree (a lax wildcard match
	// with no global declaration), handed over whole once it closes: name
	// is its root's, xml the text it serializes to, as dom.ToString renders
	// it, with the namespace bindings its names borrow from its ancestors
	// declared right after the root's tag name, so the text stands alone.
	// The validator guarantees nothing about its content.
	RawElement(name xsd.QName, xml string)
}

// ValidateReaderEvents is ValidateReaderContext with an event observer.
func (sv *StreamValidator) ValidateReaderEvents(ctx context.Context, r io.Reader, ev StreamEvents) (*Result, error) {
	return sv.validateDecoder(ctx, r, nil, ev)
}

// ValidateBytesEvents is ValidateBytes with an event observer.
func (sv *StreamValidator) ValidateBytesEvents(src []byte, ev StreamEvents) *Result {
	res, _ := sv.validateDecoder(context.Background(), nil, src, ev)
	return res
}
