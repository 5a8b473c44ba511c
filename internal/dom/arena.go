package dom

import "sync"

// Node allocation arena. Parsing a document materializes one Element, Text
// or Attr per token, and the per-node allocations dominate the DOM build
// cost. Documents created by Parse therefore draw their nodes from slabs:
// fixed-size arrays handed out entry by entry, recycled through sync.Pools
// when the caller Releases the document.
//
// Invariant: slabs in the pools are fully zeroed. Fresh slabs come zeroed
// from the allocator; release zeroes every used entry before returning a
// slab, so the allocation fast path never clears memory.
//
// The lists that link the nodes — an element's children and its
// attributes — are carved from slabs too (nodeListSlabs, attrListSlabs).
// Parse knows each list's final length when it builds it (children at the
// end tag, attributes at the start tag), so a list is one exact-size run
// of a slab, capped so that appending to it later reallocates rather than
// writing into the next list.

// slabSize is the number of nodes per slab: large enough to amortize the
// pool round-trip, small enough that tiny documents waste little.
const slabSize = 64

// maxSlabList is the longest list carved from a slab: a longer list gets
// an array of its own, left to the collector, so a wide element neither
// wastes most of a slab nor keeps a pooled one for its own size.
const maxSlabList = slabSize / 4

var (
	elemSlabs     = sync.Pool{New: func() any { return new([slabSize]Element) }}
	textSlabs     = sync.Pool{New: func() any { return new([slabSize]Text) }}
	attrSlabs     = sync.Pool{New: func() any { return new([slabSize]Attr) }}
	nodeListSlabs = sync.Pool{New: func() any { return new([slabSize]Node) }}
	attrListSlabs = sync.Pool{New: func() any { return new([slabSize]*Attr) }}
)

// lists carves exact-size lists of T from pooled slabs.
type lists[T any] struct {
	slabs []*[slabSize]T
	used  int // entries carved from the last slab
}

// carve returns a zeroed list of n entries whose capacity is n.
func (l *lists[T]) carve(pool *sync.Pool, n int) []T {
	if n == 0 {
		return nil
	}
	if n > maxSlabList {
		return make([]T, n)
	}
	if len(l.slabs) == 0 || l.used+n > slabSize {
		l.slabs = append(l.slabs, pool.Get().(*[slabSize]T))
		l.used = 0
	}
	s := l.slabs[len(l.slabs)-1][l.used : l.used+n : l.used+n]
	l.used += n
	return s
}

// release zeroes the carved entries and returns the slabs to pool.
func (l *lists[T]) release(pool *sync.Pool) {
	for i, s := range l.slabs {
		n := slabSize
		if i == len(l.slabs)-1 {
			n = l.used
		}
		clear(s[:n])
		pool.Put(s)
	}
	*l = lists[T]{}
}

// arena hands out nodes from pooled slabs. It is owned by one Document and
// is not safe for concurrent use (a DOM build is single-goroutine).
type arena struct {
	elems []*[slabSize]Element
	ei    int // used entries in the last element slab
	texts []*[slabSize]Text
	ti    int
	attrs []*[slabSize]Attr
	ai    int

	children  lists[Node]
	attrLists lists[*Attr]
}

// nodeList returns a zeroed child list of n entries.
func (a *arena) nodeList(n int) []Node { return a.children.carve(&nodeListSlabs, n) }

// attrList returns an empty attribute list with room for n entries.
func (a *arena) attrList(n int) []*Attr { return a.attrLists.carve(&attrListSlabs, n)[:0] }

func (a *arena) newElement() *Element {
	if len(a.elems) == 0 || a.ei == slabSize {
		a.elems = append(a.elems, elemSlabs.Get().(*[slabSize]Element))
		a.ei = 0
	}
	e := &a.elems[len(a.elems)-1][a.ei]
	a.ei++
	return e
}

func (a *arena) newText() *Text {
	if len(a.texts) == 0 || a.ti == slabSize {
		a.texts = append(a.texts, textSlabs.Get().(*[slabSize]Text))
		a.ti = 0
	}
	t := &a.texts[len(a.texts)-1][a.ti]
	a.ti++
	return t
}

func (a *arena) newAttr() *Attr {
	if len(a.attrs) == 0 || a.ai == slabSize {
		a.attrs = append(a.attrs, attrSlabs.Get().(*[slabSize]Attr))
		a.ai = 0
	}
	at := &a.attrs[len(a.attrs)-1][a.ai]
	a.ai++
	return at
}

// release zeroes every handed-out node and returns the slabs to the pools.
func (a *arena) release() {
	for i, s := range a.elems {
		n := slabSize
		if i == len(a.elems)-1 {
			n = a.ei
		}
		for j := 0; j < n; j++ {
			s[j] = Element{}
		}
		elemSlabs.Put(s)
	}
	for i, s := range a.texts {
		n := slabSize
		if i == len(a.texts)-1 {
			n = a.ti
		}
		for j := 0; j < n; j++ {
			s[j] = Text{}
		}
		textSlabs.Put(s)
	}
	for i, s := range a.attrs {
		n := slabSize
		if i == len(a.attrs)-1 {
			n = a.ai
		}
		for j := 0; j < n; j++ {
			s[j] = Attr{}
		}
		attrSlabs.Put(s)
	}
	a.children.release(&nodeListSlabs)
	a.attrLists.release(&attrListSlabs)
	a.elems, a.texts, a.attrs = nil, nil, nil
	a.ei, a.ti, a.ai = 0, 0, 0
}

// NewPooledDocument creates a document whose Element, Text and Attr nodes
// come from the slab arena. Parse builds its documents this way; other
// bulk builders (like the stream validator's fallback buffering) can opt
// in too. Pair with Release on the discard path to recycle the slabs.
func NewPooledDocument() *Document {
	d := NewDocument()
	d.arena = &arena{}
	return d
}

// Release returns the document's pooled node storage for reuse by later
// parses. It is optional — an un-Released document is reclaimed by the
// garbage collector as usual — but on hot parse-validate-discard loops it
// removes the per-node allocations entirely.
//
// After Release the document and every node obtained from it (elements,
// text nodes, attributes, and strings still referenced by them) must not
// be used; the storage is recycled for unrelated documents.
//
// Release is idempotent: calling it again (or calling it on a document
// that never drew from the arena) is a no-op. This matters on error
// paths that both defer a Release and release eagerly on success — a
// double release must never hand the same slab to the pools twice, which
// would alias one slab's nodes across two live documents. To keep that
// guarantee even if zeroing panics partway (an impossibility today, but
// the failure mode is silent cross-document corruption), the arena is
// detached from the document before any slab is returned.
func (d *Document) Release() {
	a := d.arena
	if a == nil {
		return
	}
	d.arena = nil
	a.release()
}
