package bind

import (
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// Kind classifies a decoded value.
type Kind int

// Value kinds.
const (
	// KindStruct is element-only complex content: typed children in
	// document order.
	KindStruct Kind = iota
	// KindSimple is a simple-typed element or complex simple content: a
	// parsed xsdtypes value (plus attributes for the latter).
	KindSimple
	// KindMixed is mixed complex content: ordered text/element segments.
	KindMixed
	// KindEmpty is complex empty content.
	KindEmpty
	// KindNil is an xsi:nil="true" element.
	KindNil
	// KindRaw is a wildcard-admitted element with no governing
	// declaration: the subtree is kept as raw XML.
	KindRaw
)

// Attr is one decoded attribute: parsed into the declared type's value
// space, or kept as a string for wildcard-admitted attributes.
type Attr struct {
	Name  xsd.QName
	Value xsdtypes.Value
}

// Segment is one slice of mixed content: either Text or Child is set.
type Segment struct {
	Text  string
	Child *Value
}

// Value is one decoded element. It preserves document order (children,
// segments, attributes), so a decoded Value can be marshaled back to
// schema-valid XML.
type Value struct {
	// Name is the element's instance name (after substitution it is the
	// member's, not the head's).
	Name xsd.QName
	// TypeName is the explicit xsi:type override, zero when the declared
	// type governed.
	TypeName xsd.QName
	Kind     Kind
	// Wild marks elements admitted by a content-model wildcard rather
	// than a declaration; they bind under "$any".
	Wild bool

	Attrs    []Attr
	Simple   xsdtypes.Value // KindSimple
	Children []*Value       // KindStruct
	Segments []Segment      // KindMixed
	Raw      string         // KindRaw: serialized XML fragment

	typ xsd.Type // effective governing type (nil for KindRaw)
}

// Type returns the effective governing type (after xsi:type), nil for raw
// wildcard content.
func (v *Value) Type() xsd.Type { return v.typ }

// appendText adds character data to a segment list, merging adjacent text
// and dropping empty runs, so every walk and generated decoder
// canonicalizes identically.
func appendText(segs []Segment, data string) []Segment {
	if data == "" {
		return segs
	}
	if n := len(segs); n > 0 && segs[n-1].Child == nil {
		segs[n-1].Text += data
		return segs
	}
	return append(segs, Segment{Text: data})
}
