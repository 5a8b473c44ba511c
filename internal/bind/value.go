package bind

import (
	"sync"

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
// chunks of slabLen entries drawn from sync.Pools, so a decoded tree costs
// a few pool round trips rather than one allocation per element and per
// list. A list longer than a chunk gets an array of its own.
//
// Who owns the chunks depends on the entry point. The scoped ones
// (DecodeBytesScoped, DecodeReaderScoped, FromJSONScoped) release the slab
// when their callback returns: every chunk is zeroed and goes back to its
// pool, so pooled chunks are always fully zeroed, as in dom/arena.go. The others forget the chunks instead and the tree belongs
// to the caller; a Value the caller keeps, even a sub-Value, keeps its
// whole chunk alive (DESIGN.md, "Value representation").
type slab struct {
	vals  chunks[Value]
	attrs chunks[Attr]
	kids  chunks[*Value]
}

// slabLen is the number of entries in every chunk: 18 Values and the
// allocator's 8-byte header fill a 4,096-byte size class, and 18 Attrs
// fill 1,448 of 1,536 bytes.
const slabLen = 18

var (
	valueChunks = sync.Pool{New: func() any { return new([slabLen]Value) }}
	attrChunks  = sync.Pool{New: func() any { return new([slabLen]Attr) }}
	kidChunks   = sync.Pool{New: func() any { return new([slabLen]*Value) }}
)

// chunks is the list of chunks one slab drew from a pool; entries are
// handed out from the last.
type chunks[T any] struct {
	list []*[slabLen]T
	used int // entries handed out from the last chunk
}

// room returns the n ≤ slabLen zeroed entries after the used ones, from a
// new chunk when the last lacks room, without claiming them.
func (c *chunks[T]) room(pool *sync.Pool, n int) []T {
	if len(c.list) == 0 || c.used+n > slabLen {
		c.list = append(c.list, pool.Get().(*[slabLen]T))
		c.used = 0
	}
	return c.list[len(c.list)-1][c.used : c.used+n : c.used+n]
}

// release zeroes the chunks and returns them to pool. It zeroes them
// whole: a list abandoned between attrSpace and keepAttrs wrote entries
// past the used ones.
func (c *chunks[T]) release(pool *sync.Pool) {
	for _, p := range c.list {
		clear(p[:])
		pool.Put(p)
	}
	c.forget()
}

// forget drops the chunks, which stay with the tree they hold.
func (c *chunks[T]) forget() {
	clear(c.list)
	c.list, c.used = c.list[:0], 0
}

// release hands every chunk back to the pools: nothing may use the tree
// afterwards.
func (s *slab) release() {
	s.vals.release(&valueChunks)
	s.attrs.release(&attrChunks)
	s.kids.release(&kidChunks)
}

// forget leaves every chunk to the tree, which the caller then owns.
func (s *slab) forget() {
	s.vals.forget()
	s.attrs.forget()
	s.kids.forget()
}

// value returns a zeroed Value.
func (s *slab) value() *Value {
	v := &s.vals.room(&valueChunks, 1)[0]
	s.vals.used++
	return v
}

// attrSpace returns an empty list with room for n attributes. Append at
// most n, then pass the list to keepAttrs.
func (s *slab) attrSpace(n int) []Attr {
	if n == 0 {
		return nil
	}
	if n > slabLen {
		return make([]Attr, 0, n)
	}
	return s.attrs.room(&attrChunks, n)[:0]
}

// keepAttrs claims the attributes appended to attrSpace's list and
// returns them with the capacity cut to the length, so an append by the
// caller copies instead of writing over the next list; nil when empty.
func (s *slab) keepAttrs(list []Attr) []Attr {
	if len(list) == 0 {
		return nil
	}
	if cap(list) <= slabLen {
		s.attrs.used += len(list)
	}
	return list[:len(list):len(list)]
}

// children copies a child list into the slab and returns the copy, its
// capacity cut to its length.
func (s *slab) children(list []*Value) []*Value {
	n := len(list)
	if n > slabLen {
		return append(make([]*Value, 0, n), list...)
	}
	out := s.kids.room(&kidChunks, n)
	s.kids.used += n
	copy(out, list)
	return out
}
