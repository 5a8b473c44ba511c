package bind

import (
	"slices"

	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// Kind classifies a decoded value.
type Kind uint8

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

// slab hands out one document's Values, Attr lists and child lists from
// chunks that double in length up to slabMax, so a decoded tree costs a
// few allocations rather than one per element and per list. The
// cap bounds the unused tail of the last chunk. The chunks are ordinary
// garbage-collected slices: a Value the caller keeps, even a sub-Value,
// keeps its whole chunk alive (DESIGN.md, "Value representation").
type slab struct {
	vals  []Value
	attrs []Attr
	kids  []*Value
}

// The first and the longest chunk's length.
const slabMin, slabMax = 8, 16

// chunkLen is the length of the chunk after one of length n.
func chunkLen(n int) int { return min(max(2*n, slabMin), slabMax) }

// value returns a zeroed Value from the current chunk.
func (s *slab) value() *Value {
	if len(s.vals) == cap(s.vals) {
		// Grow rounds the capacity up to the allocation's size class.
		s.vals = slices.Grow([]Value(nil), chunkLen(cap(s.vals)))
	}
	s.vals = s.vals[:len(s.vals)+1]
	return &s.vals[len(s.vals)-1]
}

// attrSpace returns an empty list with room for n attributes in the
// current chunk. Append at most n, then pass the list to keepAttrs.
func (s *slab) attrSpace(n int) []Attr {
	if cap(s.attrs)-len(s.attrs) < n {
		s.attrs = slices.Grow([]Attr(nil), max(chunkLen(cap(s.attrs)), n))
	}
	i := len(s.attrs)
	return s.attrs[i : i : i+n]
}

// keepAttrs claims the attributes appended to attrSpace's list and
// returns them with the capacity cut to the length, so an append by the
// caller copies instead of writing over the next list; nil when empty.
func (s *slab) keepAttrs(list []Attr) []Attr {
	if len(list) == 0 {
		return nil
	}
	s.attrs = s.attrs[:len(s.attrs)+len(list)]
	return list[:len(list):len(list)]
}

// children copies a child list into the current chunk and returns the
// copy, its capacity cut to its length.
func (s *slab) children(list []*Value) []*Value {
	n := len(list)
	if cap(s.kids)-len(s.kids) < n {
		s.kids = slices.Grow([]*Value(nil), max(chunkLen(cap(s.kids)), n))
	}
	i := len(s.kids)
	s.kids = append(s.kids, list...)
	return s.kids[i : i+n : i+n]
}
