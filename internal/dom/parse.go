package dom

import (
	"fmt"
	"sync"

	"repro/internal/xmlparser"
)

// Parse parses an XML document into a DOM tree.
func Parse(src []byte) (*Document, error) {
	return parseWith(src, nil)
}

// ParseString is a convenience wrapper around Parse.
func ParseString(src string) (*Document, error) { return Parse([]byte(src)) }

// ParseWithOptions parses with explicit parser options (e.g. fragment mode
// or extra entities).
func ParseWithOptions(src []byte, opts *xmlparser.Options) (*Document, error) {
	return parseWith(src, opts)
}

func parseWith(src []byte, opts *xmlparser.Options) (_ *Document, err error) {
	// Every token is detached into the tree (Data materializes strings),
	// so no token outlives the decoder.
	dec := xmlparser.NewDecoder(src, opts)
	defer dec.Release()
	namespaces := opts == nil || opts.Namespaces
	// Parsed documents draw their nodes from the pooled slab arena; callers
	// on hot parse-validate-discard loops may Release them when done. On
	// parse failure no node escapes, so the slabs go straight back.
	doc := NewPooledDocument()
	if opts != nil {
		doc.names = opts.Names
	}
	defer func() {
		if err != nil {
			doc.Release()
		}
	}()
	b := builders.Get().(*builder)
	b.doc = doc
	defer b.release()
	var cur Node = doc
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if tok == nil {
			return doc, nil
		}
		var n Node
		switch tok.Kind {
		case xmlparser.KindXMLDecl:
			doc.Version = pseudoAttr(tok.Data(), "version")
			doc.Encoding = pseudoAttr(tok.Data(), "encoding")
			continue
		case xmlparser.KindDoctype:
			dt := &DocumentType{Name: tok.Name.Local, ExternalID: tok.Target, InternalSubset: tok.Data()}
			dt.self = dt
			dt.doc = doc
			doc.Doctype = dt
			n = dt
		case xmlparser.KindEndElement:
			cur = b.close(cur)
			continue
		case xmlparser.KindStartElement:
			if namespaces {
				e := doc.CreateElementResolved(tok.Name, tok.Attrs)
				e.sym = tok.SymbolID() + 1
				n = e
				break
			}
			// Unresolved names may still collide on {"", Local} (a:x,
			// b:x): SetAttributeNS keeps the last one.
			e := doc.CreateElementNS(tok.Name.Space, tok.Name.Qualified())
			for _, a := range tok.Attrs {
				e.SetAttributeNS(a.Name.Space, a.Name.Qualified(), a.Value)
			}
			n = e
		case xmlparser.KindText:
			if tok.Data() == "" || cur == Node(doc) && isAllSpace(tok.Data()) {
				// Fragment mode: top-level whitespace gets no node;
				// documents never reach here with text.
				continue
			}
			n = doc.CreateTextNode(tok.Data())
		default:
			if n = doc.tokenNode(tok); n == nil {
				continue
			}
		}
		if err := b.add(cur, n); err != nil {
			return nil, fmt.Errorf("at %s: %w", tok.Pos, err)
		}
		if tok.Kind == xmlparser.KindStartElement {
			b.open()
			cur = n
		}
	}
}

// builder links a parsed tree's nodes. The children of the open elements
// wait on one stack, each element's run starting at its mark; at the
// element's end tag they become its child list, carved at its exact size
// from the arena, with each child's parent and index set as it was pushed.
// Nodes fresh from the parse need none of AppendChild's checks, moves and
// renumbering. Document children still go through AppendChild, which
// enforces the single root.
type builder struct {
	doc   *Document
	kids  []Node
	marks []int
}

// builders recycles builders' stacks between parses. A pooled builder
// keeps at most poolKids pending children and poolDepth marks.
var builders = sync.Pool{New: func() any { return new(builder) }}

const (
	poolKids  = 4096
	poolDepth = 256
)

// release empties the builder, keeping no node of the document, and
// returns it to the pool.
func (b *builder) release() {
	clear(b.kids)
	if cap(b.kids) > poolKids {
		b.kids = nil
	}
	if cap(b.marks) > poolDepth {
		b.marks = nil
	}
	*b = builder{kids: b.kids[:0], marks: b.marks[:0]}
	builders.Put(b)
}

// add appends n, a node of the parse, under parent.
func (b *builder) add(parent, n Node) error {
	if parent == Node(b.doc) {
		_, err := parent.AppendChild(n)
		return err
	}
	nb := n.base()
	nb.parent, nb.index = parent, int32(len(b.kids)-b.marks[len(b.marks)-1])
	b.kids = append(b.kids, n)
	return nil
}

// open starts collecting the children of the element just added.
func (b *builder) open() { b.marks = append(b.marks, len(b.kids)) }

// close gives the open element cur its children and returns its parent.
func (b *builder) close(cur Node) Node {
	m := b.marks[len(b.marks)-1]
	b.marks = b.marks[:len(b.marks)-1]
	if kids := b.kids[m:]; len(kids) > 0 {
		list := b.doc.arena.nodeList(len(kids))
		copy(list, kids)
		cur.base().children = list
		clear(kids)
		b.kids = b.kids[:m]
	}
	return cur.ParentNode()
}

// tokenNode returns a new CDATA section, comment or processing
// instruction for tok, or nil for a token of another kind.
func (d *Document) tokenNode(tok *xmlparser.Token) Node {
	switch tok.Kind {
	case xmlparser.KindCData:
		return d.CreateCDATASection(tok.Data())
	case xmlparser.KindComment:
		return d.CreateComment(tok.Data())
	case xmlparser.KindProcInst:
		return d.CreateProcessingInstruction(tok.Target, tok.Data())
	}
	return nil
}

// CreateElementResolved creates an element from a start tag as the
// tokenizer reports it with namespaces on: every name is split and every
// attribute's {Space, Local} is unique on the tag, so the attributes are
// appended as given, without SetAttributeNS's replace scan.
func (d *Document) CreateElementResolved(name Name, attrs []xmlparser.Attr) *Element {
	e := d.newElement(name)
	if len(attrs) == 0 {
		return e
	}
	if d.arena != nil {
		e.attrs = d.arena.attrList(len(attrs))
	} else {
		e.attrs = make([]*Attr, 0, len(attrs))
	}
	for i := range attrs {
		e.appendAttr(attrs[i].Name, attrs[i].Value)
	}
	return e
}

func isAllSpace(s string) bool {
	for _, r := range s {
		if !xmlparser.IsSpace(r) {
			return false
		}
	}
	return true
}

// pseudoAttr extracts name="value" from XML declaration text.
func pseudoAttr(s, name string) string {
	attrs, err := xmlparser.ParsePseudoAttrs(s)
	if err != nil {
		return ""
	}
	return attrs[name]
}
