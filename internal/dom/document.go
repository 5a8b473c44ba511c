package dom

import (
	"strings"

	"repro/internal/xmlparser"
)

// Document is the root of a DOM tree and the factory for all node kinds.
type Document struct {
	node
	// Version and Encoding record the XML declaration, if present.
	Version  string
	Encoding string
	// Doctype is the document type node, if the document had one.
	Doctype *DocumentType
	// arena, when set, backs Element/Text/Attr creation with pooled slabs
	// (see arena.go); nil for documents built node by node.
	arena *arena
	// names is the name table the parse read element names through, whose
	// IDs Element.SymbolID reports.
	names xmlparser.NameTable
}

// NewDocument creates an empty document.
func NewDocument() *Document {
	d := &Document{}
	d.self = d
	return d
}

// NodeType implements Node.
func (d *Document) NodeType() NodeType { return DocumentNode }

// NodeName implements Node.
func (d *Document) NodeName() string { return "#document" }

// NodeValue implements Node.
func (d *Document) NodeValue() string { return "" }

// DocumentElement returns the root element, or nil.
func (d *Document) DocumentElement() *Element {
	for _, c := range d.children {
		if e, ok := c.(*Element); ok {
			return e
		}
	}
	return nil
}

// CreateElement creates an element with no namespace.
func (d *Document) CreateElement(tag string) *Element {
	return d.CreateElementNS("", tag)
}

// CreateElementNS creates an element with the given namespace URI and
// qualified name ("prefix:local" or "local").
func (d *Document) CreateElementNS(ns, qname string) *Element {
	return d.newElement(parseQName(ns, qname))
}

// newElement creates an element with an already split name.
func (d *Document) newElement(name Name) *Element {
	var e *Element
	if d.arena != nil {
		e = d.arena.newElement()
	} else {
		e = &Element{}
	}
	e.self = e
	e.doc = d
	e.name = name
	return e
}

// CreateTextNode creates a text node.
func (d *Document) CreateTextNode(data string) *Text {
	var t *Text
	if d.arena != nil {
		t = d.arena.newText()
	} else {
		t = &Text{}
	}
	t.self = t
	t.doc = d
	t.Data = data
	return t
}

// CreateCDATASection creates a CDATA section node.
func (d *Document) CreateCDATASection(data string) *CDATASection {
	c := &CDATASection{}
	c.self = c
	c.doc = d
	c.Data = data
	return c
}

// CreateComment creates a comment node.
func (d *Document) CreateComment(data string) *Comment {
	c := &Comment{}
	c.self = c
	c.doc = d
	c.Data = data
	return c
}

// CreateProcessingInstruction creates a PI node.
func (d *Document) CreateProcessingInstruction(target, data string) *ProcessingInstruction {
	p := &ProcessingInstruction{Target: target, Data: data}
	p.self = p
	p.doc = d
	return p
}

// CreateDocumentFragment creates an empty fragment.
func (d *Document) CreateDocumentFragment() *DocumentFragment {
	f := &DocumentFragment{}
	f.self = f
	f.doc = d
	return f
}

// CreateAttribute creates a detached attribute node.
func (d *Document) CreateAttribute(qname string) *Attr {
	return d.CreateAttributeNS("", qname)
}

// CreateAttributeNS creates a detached namespaced attribute node.
func (d *Document) CreateAttributeNS(ns, qname string) *Attr {
	var a *Attr
	if d.arena != nil {
		a = d.arena.newAttr()
	} else {
		a = &Attr{}
	}
	a.self = a
	a.doc = d
	a.name = parseQName(ns, qname)
	return a
}

// GetElementsByTagName returns all descendant elements with the given tag
// name in document order; "*" matches every element.
func (d *Document) GetElementsByTagName(tag string) []*Element {
	return elementsByTagName(d, "", tag, false)
}

// GetElementsByTagNameNS is the namespace-aware variant; "*" wildcards are
// accepted for both the namespace and the local name.
func (d *Document) GetElementsByTagNameNS(ns, local string) []*Element {
	return elementsByTagName(d, ns, local, true)
}

// CloneNode implements Node.
func (d *Document) CloneNode(deep bool) Node {
	nd := NewDocument()
	nd.Version, nd.Encoding = d.Version, d.Encoding
	if deep {
		for _, c := range d.children {
			_, _ = nd.AppendChild(importNode(nd, c))
		}
	}
	return nd
}

// ImportNode copies a node from another document into this one (always a
// copy; deep selects subtree copying).
func (d *Document) ImportNode(n Node, deep bool) Node {
	if !deep {
		return importShallow(d, n)
	}
	return importNode(d, n)
}

// importNode deep-copies n into document d.
func importNode(d *Document, n Node) Node {
	c := importShallow(d, n)
	for _, k := range n.ChildNodes() {
		_, _ = c.AppendChild(importNode(d, k))
	}
	return c
}

func importShallow(d *Document, n Node) Node {
	switch x := n.(type) {
	case *Element:
		e := d.CreateElementNS(x.name.Space, x.name.Qualified())
		for _, a := range x.attrs {
			e.SetAttributeNS(a.name.Space, a.name.Qualified(), a.value)
		}
		return e
	case *Text:
		return d.CreateTextNode(x.Data)
	case *CDATASection:
		return d.CreateCDATASection(x.Data)
	case *Comment:
		return d.CreateComment(x.Data)
	case *ProcessingInstruction:
		return d.CreateProcessingInstruction(x.Target, x.Data)
	case *DocumentFragment:
		return d.CreateDocumentFragment()
	default:
		panic("dom: cannot import " + n.NodeType().String())
	}
}

// parseQName splits a qualified name and attaches the namespace.
func parseQName(ns, qname string) Name {
	n := Name{Space: ns}
	if i := strings.IndexByte(qname, ':'); i >= 0 {
		n.Prefix, n.Local = qname[:i], qname[i+1:]
	} else {
		n.Local = qname
	}
	return n
}

// elementsByTagName walks the subtree collecting matching elements.
func elementsByTagName(root Node, ns, local string, nsAware bool) []*Element {
	var out []*Element
	var walk func(Node)
	walk = func(n Node) {
		for _, c := range n.ChildNodes() {
			if e, ok := c.(*Element); ok {
				if matchTag(e, ns, local, nsAware) {
					out = append(out, e)
				}
			}
			walk(c)
		}
	}
	walk(root)
	return out
}

func matchTag(e *Element, ns, local string, nsAware bool) bool {
	if !nsAware {
		return local == "*" || e.TagName() == local
	}
	nsOK := ns == "*" || e.name.Space == ns
	localOK := local == "*" || e.name.Local == local
	return nsOK && localOK
}

// DocumentType is a doctype node; the declarations of its internal subset
// are kept as raw text (package dtd parses them).
type DocumentType struct {
	node
	// Name is the doctype name (the root element type).
	Name string
	// ExternalID is the raw SYSTEM/PUBLIC identifier text, if any.
	ExternalID string
	// InternalSubset is the raw internal subset text, if any.
	InternalSubset string
}

// NodeType implements Node.
func (t *DocumentType) NodeType() NodeType { return DocumentTypeNode }

// NodeName implements Node.
func (t *DocumentType) NodeName() string { return t.Name }

// NodeValue implements Node.
func (t *DocumentType) NodeValue() string { return "" }

// CloneNode implements Node.
func (t *DocumentType) CloneNode(bool) Node {
	c := &DocumentType{Name: t.Name, ExternalID: t.ExternalID, InternalSubset: t.InternalSubset}
	c.self = c
	c.doc = t.doc
	return c
}

// DocumentFragment is a lightweight container; inserting it inserts its
// children.
type DocumentFragment struct{ node }

// NodeType implements Node.
func (f *DocumentFragment) NodeType() NodeType { return DocumentFragmentNode }

// NodeName implements Node.
func (f *DocumentFragment) NodeName() string { return "#document-fragment" }

// NodeValue implements Node.
func (f *DocumentFragment) NodeValue() string { return "" }

// CloneNode implements Node.
func (f *DocumentFragment) CloneNode(deep bool) Node {
	c := f.doc.CreateDocumentFragment()
	if deep {
		cloneChildrenInto(c, f)
	}
	return c
}
